"""End-to-end acceptance checks, one test per headline property.

Each test pins the behavior the package is built around, at fixed tolerances
and fixed seeds, so `pytest -v` on this module gives one pass/fail line per
property.
"""

import itertools
import subprocess
import sys
import time

import numpy as np

from quivrep import (
    OperatorPair,
    build_extended_dynkin,
    commutant_basis,
    density_criterion,
    four_subspace_from_pair,
    kron_pair_shift_rank_one,
    log_mk,
    phi_map,
    subspace_system_end,
    subspace_system_rep,
)
from quivrep.cyclic import cn_transitive_criterion, cycle_quiver, cycle_rep
from quivrep.hom import end_basis, find_isomorphism, is_indecomposable, is_transitive
from quivrep.opmodels import SequenceSpec, jordan_block
from quivrep.quiver import an_quiver, kronecker_quiver, new_quiver, opposite
from quivrep.reflection import (
    dual,
    orientation_sequence_an,
    reflect_sink,
    reflect_source,
    verify_end_isomorphism,
)
from quivrep.rep import decompose_with, is_invertible_hom, new_rep

from conftest import random_rep


def _star_quiver():
    return new_quiver(
        ["1", "2", "3", "4", "5"],
        [(f"a{i}", str(i), "5") for i in range(1, 5)],
        name="star4",
    )


def test_01_jordan_graph_system_end_is_the_commutant():
    t0 = time.monotonic()
    for k in range(2, 7):
        j = jordan_block(k)
        sys4 = four_subspace_from_pair(OperatorPair(np.eye(k, dtype=complex), j))
        se = subspace_system_end(sys4)
        rep = subspace_system_rep(sys4)
        eb = end_basis(rep)
        assert se.dim == k, f"system End dim {se.dim} != {k}"
        assert eb.dim == k, f"rep End dim {eb.dim} != {k}"
        assert len(commutant_basis(j)) == k
        assert se.max_residual <= 1e-8
        assert eb.max_residual <= 1e-8
        assert is_indecomposable(rep, seed=0).indecomposable
    assert time.monotonic() - t0 < 5.0


def test_02_exhaustive_cycle_criterion_matches_direct_end():
    t0 = time.monotonic()
    transitive = {n: set() for n in (2, 3, 4)}
    for n in (2, 3, 4):
        for dims in itertools.product((0, 1), repeat=n):
            live = [i for i in range(n) if dims[i] == 1 and dims[(i + 1) % n] == 1]
            for bits in itertools.product((0, 1), repeat=len(live)):
                scalars = [0.0] * n
                for pos, b in zip(live, bits):
                    scalars[pos] = float(b)
                r = cycle_rep(dims, scalars)
                crit = cn_transitive_criterion(r)
                direct = False if r.is_zero else is_transitive(r).transitive
                assert crit == direct, f"n={n} dims={dims} bits={bits}"
                if crit:
                    transitive[n].add((dims, tuple(bits)))

    # two-cycle: one vertex alone (two cases) or both vertices joined by a
    # nonzero arrow (one case, three instances)
    assert transitive[2] == {
        ((1, 0), ()),
        ((0, 1), ()),
        ((1, 1), (1, 0)),
        ((1, 1), (0, 1)),
        ((1, 1), (1, 1)),
    }
    # three-cycle: a singleton (three cases), an adjacent pair joined by its
    # arrow (three cases), or full support connected by at least two arrows
    # (one case, four instances)
    singletons = {((1, 0, 0), ()), ((0, 1, 0), ()), ((0, 0, 1), ())}
    pairs = {((1, 1, 0), (1,)), ((0, 1, 1), (1,)), ((1, 0, 1), (1,))}
    full = {((1, 1, 1), bits) for bits in [(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]}
    assert transitive[3] == singletons | pairs | full
    assert len(transitive[4]) == 17
    assert time.monotonic() - t0 < 10.0


def test_03_cycles_with_higher_dimensions_are_never_transitive():
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 500:
        n = int(rng.integers(2, 5))
        dims = rng.integers(0, 4, size=n)
        if dims.max() < 2:
            continue
        q = cycle_quiver(n)
        r = random_rep(q, {str(i + 1): int(dims[i]) for i in range(n)}, rng)
        assert not is_transitive(r).transitive, f"dims {dims.tolist()}"
        checked += 1


def test_04_reflection_preserves_end_dimension_and_multiplication():
    rng = np.random.default_rng(1)
    shapes = [(kronecker_quiver(), "2", "1"), (_star_quiver(), "5", "1")]
    done_plus = done_minus = 0
    while done_plus < 100 or done_minus < 100:
        q, sink, source = shapes[int(rng.integers(0, 2))]
        dims = {v: int(rng.integers(0, 5)) for v in q.vertices}
        r = random_rep(q, dims, rng)
        if r.is_zero:
            continue
        if done_plus < 100:
            rep_plus = verify_end_isomorphism(r, sink, "plus")
            if rep_plus.hypothesis_ok:
                assert rep_plus.dims_equal, f"plus dims {dims}"
                assert rep_plus.max_membership_residual <= 1e-8
                assert rep_plus.max_multiplicativity_residual <= 1e-8
                assert rep_plus.ok
                done_plus += 1
        if done_minus < 100:
            rep_minus = verify_end_isomorphism(r, source, "minus")
            if rep_minus.hypothesis_ok:
                assert rep_minus.dims_equal, f"minus dims {dims}"
                assert rep_minus.max_membership_residual <= 1e-8
                assert rep_minus.max_multiplicativity_residual <= 1e-8
                assert rep_minus.ok
                done_minus += 1


def test_05_backward_then_forward_reflection_round_trips():
    rng = np.random.default_rng(2)
    kron_roots = [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (0, 1), (3, 4)]
    path_roots = [(1, 1, 0), (0, 1, 1), (1, 1, 1), (1, 0, 0), (0, 0, 1)]
    done = successes = 0
    while done < 100:
        if done % 2 == 0:
            q = kronecker_quiver()
            d1, d2 = kron_roots[(done // 2) % len(kron_roots)]
            r = random_rep(q, {"1": d1, "2": d2}, rng)
        else:
            q = an_quiver(3, "<>")  # arrows 2 -> 1 and 2 -> 3; vertex 2 is the source
            d = path_roots[(done // 2) % len(path_roots)]
            r = random_rep(q, {"1": d[0], "2": d[1], "3": d[2]}, rng)
        src = "1" if done % 2 == 0 else "2"
        if not is_indecomposable(r, seed=done).indecomposable:
            continue
        minus = reflect_source(r, src)
        if minus.rep.is_zero:
            continue
        done += 1
        assert is_indecomposable(minus.rep, seed=done).indecomposable
        back = reflect_sink(minus.rep, src)
        if find_isomorphism(r, back.rep, seed=done) is not None:
            successes += 1
    assert successes >= 99, f"round trip recovered only {successes}/100"


def test_06_backward_reflection_equals_dualized_forward_reflection():
    rng = np.random.default_rng(3)
    isolated = new_quiver(["1", "2", "3"], [("a", "1", "2")])
    # (quiver, source, dimensions fixed rather than drawn): the last two are an
    # isolated vertex and a source whose arrows all end at dimension 0
    cases = [(kronecker_quiver(), "1", {}), (opposite(_star_quiver()), "5", {}), (an_quiver(3, "<>"), "2", {}),
             (isolated, "3", {}), (kronecker_quiver(), "1", {"2": 0})]
    checked = 0
    while checked < 100:
        q, src, fixed = cases[checked % len(cases)]
        dims = {v: int(rng.integers(0, 4)) for v in q.vertices} | fixed
        r = random_rep(q, dims, rng)
        res = reflect_source(r, src)
        res_dual = reflect_sink(dual(r), src)
        direct, via_dual = res.rep, dual(res_dual.rep)
        assert direct.quiver == via_dual.quiver
        assert direct.dims == via_dual.dims
        for a in direct.quiver.arrows:
            assert np.array_equal(direct.mats[a.name], via_dual.mats[a.name]), a.name
        # the data transport_hom reads
        assert res.kernel_basis.shape == res_dual.kernel_basis.shape
        assert np.array_equal(res.kernel_basis, res_dual.kernel_basis)
        assert res.block_vertices == res_dual.block_vertices
        assert res.block_offsets == res_dual.block_offsets
        checked += 1


def test_07_extended_families_reproduce_the_operator():
    for family in ("d4tilde", "e6tilde", "e7tilde", "e8tilde"):
        for k in (1, 2, 3):
            rep = build_extended_dynkin(family, jordan_block(k))
            assert end_basis(rep).dim == k, f"{family} k={k}"
            assert is_indecomposable(rep, seed=1).indecomposable, f"{family} k={k}"
        rep = build_extended_dynkin(family, np.diag([1.0, 2.0]))
        verdict = is_indecomposable(rep, seed=2)
        assert verdict.kind == "decomposable", family
        first, second, witness = decompose_with(rep, verdict.witness)
        assert is_invertible_hom(witness)
        assert first.total_dim + second.total_dim == rep.total_dim
        assert not first.is_zero and not second.is_zero

    t0 = time.monotonic()
    big = build_extended_dynkin("e8tilde", jordan_block(4))
    assert big.dims["0"] == 24
    assert end_basis(big).dim == 4
    assert time.monotonic() - t0 < 5.0


def test_08_shift_rank_one_kernel_and_density_verdicts():
    pair = kron_pair_shift_rank_one("seq:reciprocal", "seq:reciprocal", 32)
    sv = np.linalg.svd(pair.a, compute_uv=False)
    assert sv[-1] > 1e-12 * sv[0], f"sigma_min/sigma_max = {sv[-1] / sv[0]:.2e}"

    dense = density_criterion("seq:reciprocal", "seq:reciprocal")
    assert dense.dense and dense.ratio_l2 is False

    blocked = density_criterion("seq:list:[0]:reciprocal", "seq:reciprocal")
    assert not blocked.dense and blocked.ratio_l2 is None

    summable = density_criterion("seq:one-minus-pow:2", "seq:reciprocal")
    assert not summable.dense and summable.ratio_l2 is True


def test_09_doubling_map_kernel_and_surjectivity():
    a = np.diag([1.0, 0.0]).astype(complex)
    report = phi_map(OperatorPair(a, a.copy()))
    assert report.ker_dim == 2 == report.expected_ker_dim
    assert report.surjective

    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rep = phi_map(OperatorPair(x, y))
        assert rep.expected_ker_dim == 0  # generic pairs have no joint kernel
        assert rep.injective
        assert rep.surjective


def test_10_parity_weight_ratio_products_are_unbounded():
    a_seq, b_seq = (SequenceSpec("exp-neg-pow", lam=3.0, parity=p) for p in ("even", "odd"))
    for m in range(-4, 5):
        for n in range(-4, 5):
            if m == n:
                continue
            best = max(abs(log_mk(a_seq, b_seq, m, n, k)) for k in range(1, 13))
            assert best > 1e3, f"(m, n) = ({m}, {n}): max |log ratio product| = {best}"


def test_11_every_orientation_of_a_path_is_reachable_by_source_flips():
    for n in range(2, 6):
        for target in itertools.product((True, False), repeat=n - 1):
            text = "".join(">" if right else "<" for right in target)
            seq = orientation_sequence_an(n, text)
            state = [True] * (n - 1)  # True: edge i points i -> i+1
            for v in map(int, seq):  # vertex labels "1".."n"
                assert v != n, f"n={n} target={text}: flip at the forbidden endpoint"
                left_ok = v == 1 or not state[v - 2]
                right_ok = state[v - 1]
                assert left_ok and right_ok, f"n={n} target={text}: {v} is not a source"
                if v > 1:
                    state[v - 2] = True
                state[v - 1] = False
            assert state == list(target), f"n={n}: reached {state}, wanted {list(target)}"


def test_12_verification_suite_is_deterministic():
    cmd = [sys.executable, "-m", "quivrep", "verify", "--suite", "all", "--seed", "7"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0, first.stdout.decode()[-2000:]
    assert second.returncode == 0
    assert first.stdout and first.stdout == second.stdout
