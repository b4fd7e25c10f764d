"""Tests of the benchmark's own parts: references, text I/O, tracing, metadata.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import reference as ref
import run
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def test_commutant_dim_from_jordan_structure():
    assert ref.commutant_dim({0: [3]}) == 3
    assert ref.commutant_dim({0: [2, 1]}) == 5
    assert ref.commutant_dim({1: [2], 2: [2]}) == 4
    assert ref.commutant_dim({1: [1], 2: [1], 3: [1]}) == 3
    assert ref.is_single_block({0: [4]}) and not ref.is_single_block({1: [1], 2: [1]})


@pytest.mark.parametrize("s, want", [
    (ref.jordan(4, 0.5), 4),
    (np.diag([1.0, 2.0, 3.0]), 3),
    (ref.block_diag([ref.jordan(2, 1.0), ref.jordan(1, 1.0)]), 5),
])
def test_end_dim_of_the_loop_is_the_commutant(s, want):
    assert ref.end_dim(["1"], {"1": s.shape[0]}, {"a": ("1", "1", s)}) == want


def test_end_dim_of_a_graph_pair_and_a_generic_pair():
    k = 4
    arrows = {"a": ("1", "2", np.eye(k)), "b": ("1", "2", ref.jordan(k, 0.3))}
    assert ref.end_dim(["1", "2"], {"1": k, "2": k}, arrows) == k
    rng = np.random.default_rng(0)
    arrows = {n: ("1", "2", rng.standard_normal((3, 2))) for n in ("a", "b")}
    assert ref.end_dim(["1", "2"], {"1": 2, "2": 3}, arrows) == 1


def test_cycle_connectivity():
    assert ref.cycle_transitive([1, 1, 1], [1, 1, 0])
    assert ref.cycle_transitive([1, 0, 1], [0, 0, 2])  # the arrow 3 -> 1 joins the wrap
    assert not ref.cycle_transitive([1, 1, 1, 1], [1, 0, 1, 0])
    assert len(ref.cycle_components([1, 1, 1, 1], [1, 0, 1, 0])) == 2
    assert not ref.cycle_transitive([2, 1], [1, 1])
    assert not ref.cycle_transitive([0, 0], [1, 1])


def test_density_closed_form():
    assert ref.dense(("reciprocal",), ("one-minus-pow", 2))
    assert not ref.dense(("one-minus-pow", 3), ("reciprocal",))
    assert ref.dense(("exp-neg-pow", 1.1, "even"), ("exp-neg-pow", 1.1, "odd"))
    assert ref.dense(("exp-neg-pow", 1.1, "odd"), ("exp-neg-pow", 1.1, "even"))


def test_exact_pair_dims_match_a_numeric_count():
    n = 4
    lam = [Fraction(1, i) for i in range(1, n + 1)]
    w = [1 - Fraction(1, 3**i) for i in range(1, n + 1)]
    a, b = ref.shift_rank_one([float(x) for x in lam], [float(x) for x in w])
    numeric = ref.end_dim(["1", "2"], {"1": n, "2": n}, {"a": ("1", "2", a), "b": ("1", "2", b)})
    pair_dim, system_dim = ref.shift_rank_one_end_dims_exact(lam, w)
    assert pair_dim == numeric
    assert system_dim == pair_dim - n * ref.joint_kernel_dim(a, b)


def test_rep_text_round_trip():
    rng = np.random.default_rng(1)
    dims = {"1": 2, "2": 0, "3": 3}
    arrows = {"x": ("1", "3", rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))),
              "y": ("2", "3", np.zeros((3, 0), dtype=complex))}
    vertices, got_dims, got = workloads.parse_rep_text(workloads.rep_text("Q", ["1", "2", "3"], arrows, dims))
    assert vertices == ["1", "2", "3"] and got_dims == dims
    for name, (s, t, m) in arrows.items():
        assert got[name][:2] == (s, t)
        assert np.array_equal(got[name][2], m)


def test_rep_text_is_read_by_quivrep():
    import quivrep

    arrows = {"a": ("1", "2", np.array([[1.5 - 2j], [-0.0 + 1e-300j]]))}
    r = quivrep.parse_rep(workloads.rep_text("Q", ["1", "2"], arrows, {"1": 1, "2": 2}))
    assert np.array_equal(r.mats["a"], arrows["a"][2])


def test_recorder_rebinds_names_imported_by_other_modules():
    import quivrep
    from quivrep import hom, rep

    original = rep.make_hom
    rec = tracing.Recorder()
    rec.install()
    try:
        assert hom.make_hom is rep.make_hom is not original
        r = quivrep.new_rep(quivrep.jordan_quiver(), {"1": 2}, {"a": ref.jordan(2)})
        with rec.problem_span(0):
            quivrep.end_basis(r)
    finally:
        rec.uninstall()
    assert rep.make_hom is original and hom.make_hom is original
    names = [s[0] for s in rec.spans]
    assert names[0] == "problem" and "hom.hom_basis" in names and "linalg.factor" in names
    make_hom = [s for s in rec.spans if s[0] == "rep.make_hom"]
    assert make_hom and all(rec.spans[s[3]][0] == "hom.hom_basis" for s in make_hom)
    metrics = tracing.layer_metrics(rec.spans, 1)
    assert metrics["hom.end_solves_per_problem"] == 1
    assert metrics["rep.make_hom_calls"] == len(make_hom)
    assert set(metrics) | {"cli.import_s", "cli.import_scipy_s", "trace.overhead_ratio"} == set(tracing.LAYER_UNITS)


def test_self_time_subtracts_children():
    spans = [("problem", 0.0, 10.0, -1, 0, None),
             ("opmodels.phi", 1.0, 5.0, 0, 0, None),
             ("hom.end_basis", 1.5, 2.5, 1, 0, None),
             ("hom.hom_basis", 1.5, 2.5, 2, 0, 0.5),
             ("opmodels.phi", 6.0, 7.0, 0, 0, None)]
    m = tracing.layer_metrics(spans, 2)
    assert m["opmodels.phi_s"] == pytest.approx((4.0 - 1.0 + 1.0) / 2)
    assert m["hom.hom_basis_s"] == pytest.approx(0.5)
    assert m["hom.system_melem"] == pytest.approx(0.25)


def test_import_times_are_positive():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    t = tracing.import_times(sys.executable, env, repeats=1)
    assert 0 < t["cli.import_scipy_s"] < t["cli.import_s"]


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_run_fails_without_the_sources():
    bare = os.path.join(HERE, "out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "dynkin-end", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
