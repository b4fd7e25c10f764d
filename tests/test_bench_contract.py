"""The names, attributes and report keys that the benchmark reads exist in quivrep.

The bench workers call the package as `q.<module>.<name>`, read attributes of
what those calls return, and read keys of the CLI's JSON reports; a name,
field or key deleted from quivrep would otherwise show only as a crashed or
failed benchmark run.  The names that bench/tracing.py wraps are checked by
`test_entry_points.py::test_traced_functions_resolve`.  These tests read
bench/ and change nothing there.
"""

import importlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from quivrep import builders, cli, hom, opmodels, reflection
from quivrep.quiver import kronecker_quiver
from quivrep.rep import new_rep

BENCH = Path(__file__).resolve().parent.parent / "bench"
GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def test_every_name_the_workloads_call_exists():
    used = {m.groups() for path in ("workloads.py", "worker.py")
            for m in re.finditer(r"\bq\.(\w+)\.(\w+)", (BENCH / path).read_text(encoding="utf-8"))}
    missing = [f"{m}.{n}" for m, n in sorted(used) if not hasattr(importlib.import_module(f"quivrep.{m}"), n)]
    assert len(used) > 20 and not missing


def test_every_attribute_the_workloads_read_exists():
    r = builders.build_extended_dynkin("d4tilde", np.diag([1.0, 2.0]))
    verdict = hom.is_indecomposable(r)
    assert verdict.kind == "decomposable" and verdict.witness.mats
    assert all(h.mats for h in hom.end_basis(r).basis)

    pair = opmodels.kron_pair_shift_rank_one("seq:reciprocal", "seq:reciprocal", 3)
    sys_end = opmodels.subspace_system_end(pair.system)
    assert sys_end.dim == len(sys_end.basis) > 0 and all(t.ndim == 2 for t in sys_end.basis)

    kr = new_rep(kronecker_quiver(), {"1": 2, "2": 2}, {"a": np.eye(2), "b": np.diag([1.0, 2.0])})
    reads = [
        (opmodels.phi_map(pair), ("end_dim", "system_end_dim", "ker_dim", "expected_ker_dim", "surjective")),
        (reflection.verify_end_isomorphism(kr, "2", "plus"),
         ("end_dim", "end_dim_reflected", "hypothesis_ok", "ok", "direction")),
    ]
    missing = [f"{type(obj).__name__}.{n}" for obj, names in reads for n in names if not hasattr(obj, n)]
    assert missing == []


CLI_READS = {
    "analyze": (["analyze", "kron-split.txt"], ["end_dim", "verdict", "transitive", "idempotent_witness"]),
    "reflect": (["reflect", "kron-random.txt", "--vertex", "2", "--dir", "plus", "--verify-end-iso"],
                ["end_iso.ok", "end_iso.hypothesis_ok", "end_iso.end_dim", "end_iso.end_dim_reflected",
                 "direction", "dims_after", "reflected"]),
    "cycle": (["cycle", "cycle.txt"], ["criterion", "direct_transitive", "agree", "end_dim", "components"]),
    "build": (["build", "--family", "d4tilde", "--op", "jordan:2"], ["end_dim", "verdict", "rep"]),
    "opmodel": (["opmodel", "--pair", "shift-rank-one", "--lambda", "seq:reciprocal", "--w", "seq:reciprocal",
                 "--n", "3", "--density", "--four-subspace", "--phi"],
                ["four_subspace.agree", "four_subspace.end_dim", "four_subspace.rep_end_dim",
                 "phi.system_end_dim", "phi.ker_dim", "phi.end_dim", "density.dense"]),
}


@pytest.mark.parametrize("command", sorted(CLI_READS))
def test_every_report_key_the_workloads_read_exists(capsys, monkeypatch, command):
    argv, keys = CLI_READS[command]
    monkeypatch.chdir(GOLDEN_INPUTS)
    assert cli.run(argv + ["--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    missing = []
    for key in keys:
        node = report
        for part in key.split("."):
            node = node.get(part) if isinstance(node, dict) else None
        if node is None:
            missing.append(key)
    assert missing == []
