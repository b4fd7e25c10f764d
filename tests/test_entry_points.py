"""Names that the README documents and that the benchmark's tracer wraps must resolve."""

import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import quivrep

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


def test_import_does_not_load_scipy():
    code = "import quivrep, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
