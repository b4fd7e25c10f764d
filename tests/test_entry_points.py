"""Names that the README documents and that the benchmark's tracer wraps must resolve."""

import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quivrep
from quivrep.opmodels import jordan_block
from quivrep.textio import format_matrix

ROOT = Path(__file__).resolve().parent.parent


def _readme_names() -> set[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    quick_start = re.search(r"from quivrep import \(([^)]*)\)", text).group(1)
    names = set(re.findall(r"\w+", quick_start))
    section = text.split("Other entry points worth knowing:", 1)[1].split("\n## ", 1)[0]
    for bullet in re.split(r"\n- ", section)[1:]:
        head, _, body = bullet.partition(" — ")
        names.update(re.findall(r"`(\w+)", head))  # every name the bullet lists
        names.update(re.findall(r"`(\w+)\(", body))  # calls named in the description
    return names


def test_readme_entry_points_are_exported():
    names = _readme_names()
    assert {"reflect_source", "is_indecomposable", "commutant_basis", "decompose_with"} <= names
    assert sorted(n for n in names if not hasattr(quivrep, n)) == []


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{name}"
        for module, name, _, _ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(f"quivrep.{module}"), name, None))
    ]
    assert missing == []


def test_import_does_not_load_scipy(src_env):
    code = "import quivrep, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=src_env)
    assert out.stdout.strip() == "[]"


def _local_end_rep(tmp_path) -> str:
    # End of (I, J_4(l)) is local: the trace form decides it without a spectral projection
    path = tmp_path / "kronecker.rep"
    path.write_text("quiver K2\nvertex 1\nvertex 2\narrow a: 1 -> 2\narrow b: 1 -> 2\ndim 1 = 4\ndim 2 = 4\n"
                    f"mat a = {format_matrix(np.eye(4))}\nmat b = {format_matrix(jordan_block(4, 0.5 + 0.25j))}\n")
    return str(path)


@pytest.mark.parametrize("rep_path, verdict", [
    (_local_end_rep, "indecomposable"),
    # a decomposable End: the witness comes from the numpy-only sign-function projection
    (lambda _: str(ROOT / "tests" / "golden" / "inputs" / "kron-split.txt"), "decomposable"),
], ids=["local-end", "kron-split"])
def test_analyze_does_not_load_scipy(tmp_path, src_env, rep_path, verdict):
    code = ("import runpy, sys\n"
            "try:\n    runpy.run_module('quivrep', run_name='__main__')\n"
            "except SystemExit as e:\n    print(e.code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, "analyze", rep_path(tmp_path)], capture_output=True, text=True,
                         check=True, env=src_env)
    assert f"verdict: {verdict}" in out.stdout
    assert out.stdout.splitlines()[-1] == "0 []"
