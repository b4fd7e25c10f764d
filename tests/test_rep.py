import copy

import numpy as np
import pytest

import quivrep as qr
from quivrep import rep
from conftest import random_rep


def test_new_rep_accepts_consistent_shapes():
    q = qr.kronecker_quiver()
    r = qr.new_rep(q, {"1": 1, "2": 1}, {"a": [[1.0]], "b": [[0.0]]})
    assert r.dim_vector == (1, 1)
    r2 = qr.new_rep(q, {"1": 2, "2": 1}, {"a": [[1.0, 0.0]], "b": [[0.0, 1.0]]})
    assert r2.mats["a"].shape == (1, 2)


def test_new_rep_rejects_wrong_shape():
    q = qr.kronecker_quiver()
    with pytest.raises(ValueError):
        qr.new_rep(q, {"1": 2, "2": 1}, {"a": np.eye(2), "b": [[0.0, 1.0]]})


def test_new_rep_rejects_nonfinite_entries():
    q = qr.kronecker_quiver()
    with pytest.raises(ValueError):
        qr.new_rep(q, {"1": 1, "2": 1}, {"a": [[np.nan]], "b": [[0.0]]})


def test_new_rep_requires_matrix_when_both_dims_positive():
    q = qr.kronecker_quiver()
    with pytest.raises(ValueError):
        qr.new_rep(q, {"1": 1, "2": 1}, {"a": [[1.0]]})


def test_zero_dim_vertices_get_empty_matrices():
    q = qr.kronecker_quiver()
    r = qr.new_rep(q, {"1": 2, "2": 0})
    assert r.mats["a"].shape == (0, 2)
    assert r.mats["b"].shape == (0, 2)
    assert not r.is_zero
    assert qr.zero_rep(q).is_zero


def test_direct_sum_blocks():
    q = qr.kronecker_quiver()
    r1 = qr.new_rep(q, {"1": 1, "2": 1}, {"a": [[1.0]], "b": [[0.0]]})
    r2 = qr.new_rep(q, {"1": 1, "2": 1}, {"a": [[0.0]], "b": [[1.0]]})
    s = qr.direct_sum(r1, r2)
    assert s.dim_vector == (2, 2)
    assert np.array_equal(s.mats["a"], np.diag([1.0, 0.0]).astype(complex))
    assert np.array_equal(s.mats["b"], np.diag([0.0, 1.0]).astype(complex))


def test_direct_sum_with_zero_rep_keeps_matrices():
    q = qr.kronecker_quiver()
    r = qr.new_rep(q, {"1": 1, "2": 1}, {"a": [[2.0]], "b": [[3.0]]})
    s = qr.direct_sum(r, qr.zero_rep(q))
    assert s.dim_vector == r.dim_vector
    assert np.array_equal(s.mats["a"], r.mats["a"])


def test_direct_sum_dims_add(rng):
    q = qr.cycle_quiver(3)
    r1 = random_rep(q, {v: int(rng.integers(0, 3)) for v in q.vertices}, rng)
    r2 = random_rep(q, {v: int(rng.integers(0, 3)) for v in q.vertices}, rng)
    s = qr.direct_sum(r1, r2)
    assert s.dim_vector == tuple(x + y for x, y in zip(r1.dim_vector, r2.dim_vector))


def test_conjugate_identity_is_identity(rng):
    q = qr.kronecker_quiver()
    r = random_rep(q, {"1": 2, "2": 2}, rng)
    same = qr.conjugate(r, {v: np.eye(2) for v in ("1", "2")})
    for a in ("a", "b"):
        assert np.allclose(same.mats[a], r.mats[a])


def test_conjugate_round_trip(rng):
    q = qr.kronecker_quiver()
    r = random_rep(q, {"1": 3, "2": 2}, rng)
    phi = {
        "1": rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
        "2": rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
    }
    back = qr.conjugate(qr.conjugate(r, phi), {v: np.linalg.inv(m) for v, m in phi.items()})
    for a in ("a", "b"):
        assert np.allclose(back.mats[a], r.mats[a], rtol=1e-10, atol=1e-10)


def test_conjugate_rejects_singular_map(rng):
    q = qr.kronecker_quiver()
    r = random_rep(q, {"1": 2, "2": 2}, rng)
    with pytest.raises(qr.PreconditionError):
        qr.conjugate(r, {"1": np.zeros((2, 2)), "2": np.eye(2)})


def test_conjugation_does_not_change_decomposability(rng):
    q = qr.kronecker_quiver()
    for trial in range(50):
        r1 = random_rep(q, {"1": 1, "2": 1}, rng)
        r2 = random_rep(q, {"1": 1, "2": 1}, rng)
        both = qr.direct_sum(r1, r2)
        phi = {v: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
               for v in ("1", "2")}
        hidden = qr.conjugate(both, phi)
        before = qr.is_indecomposable(both, seed=trial).kind
        after = qr.is_indecomposable(hidden, seed=trial).kind
        assert before == after == "decomposable"


def test_make_hom_computes_the_residual_once_when_first_read(monkeypatch, rng):
    calls = []
    original = rep.hom_residual

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(rep, "hom_residual", counting)
    q = qr.kronecker_quiver()
    r = random_rep(q, {"1": 2, "2": 3}, rng)
    h = qr.make_hom(r, r, {v: np.eye(r.dims[v]) for v in q.vertices})
    assert calls == []
    first = h.residual
    assert h.residual == first <= 1e-12
    assert len(calls) == 1


def test_decompose_with_recovers_block_structure(rng):
    q = qr.kronecker_quiver()
    r1 = qr.new_rep(q, {"1": 1, "2": 1}, {"a": [[1.0]], "b": [[0.0]]})
    r2 = qr.new_rep(q, {"1": 1, "2": 1}, {"a": [[0.0]], "b": [[1.0]]})
    both = qr.direct_sum(r1, r2)
    proj = qr.make_hom(both, both, {v: np.diag([1.0, 0.0]).astype(complex) for v in ("1", "2")})
    parts = qr.decompose_with(both, proj)
    assert parts.first.dim_vector == (1, 1)
    assert parts.second.dim_vector == (1, 1)
    assert qr.is_invertible_hom(parts.witness)
    # witness really intertwines: residual of the hom from first+second to both
    assert parts.witness.residual <= 1e-9
    assert qr.find_isomorphism(parts.first, r1, seed=1) is not None
    assert qr.find_isomorphism(parts.second, r2, seed=1) is not None


def test_decompose_and_conjugate_with_a_zero_dimensional_vertex(rng):
    star = qr.new_quiver(["1", "2", "3"], [("a", "1", "3"), ("b", "2", "3")])
    r = random_rep(star, {"1": 1, "2": 0, "3": 1}, rng)
    both = qr.direct_sum(r, r)
    phi = {"1": rng.standard_normal((2, 2)), "2": np.zeros((0, 0)), "3": rng.standard_normal((2, 2))}
    hidden = qr.conjugate(both, phi)
    assert hidden.dim_vector == (2, 0, 2) and hidden.mats["b"].shape == (2, 0)
    back = qr.conjugate(hidden, {v: np.linalg.inv(m) for v, m in phi.items()})
    assert all(np.allclose(back.mats[a], both.mats[a], atol=1e-12) for a in ("a", "b"))

    half = np.diag([1.0, 0.0])
    parts = qr.decompose_with(both, qr.make_hom(both, both, {"1": half, "2": np.zeros((0, 0)), "3": half}))
    assert parts.first.dim_vector == parts.second.dim_vector == (1, 0, 1)
    assert parts.witness.mats["2"].shape == (0, 0)
    assert qr.is_invertible_hom(parts.witness) and parts.witness.residual <= 1e-12


def test_decompose_with_rejects_trivial_idempotents(rng):
    q = qr.kronecker_quiver()
    r = random_rep(q, {"1": 2, "2": 2}, rng)
    with pytest.raises(qr.PreconditionError):
        qr.decompose_with(r, qr.identity_hom(r))
    zero = qr.make_hom(r, r, {v: np.zeros((2, 2)) for v in ("1", "2")})
    with pytest.raises(qr.PreconditionError):
        qr.decompose_with(r, zero)


def test_decompose_with_rejects_non_idempotent(rng):
    q = qr.kronecker_quiver()
    r = random_rep(q, {"1": 2, "2": 2}, rng)
    eb = qr.end_basis(r)
    h = eb.basis[0]
    scaled = qr.make_hom(r, r, {v: 3.7 * m for v, m in h.mats.items()})
    if np.linalg.norm(scaled.mats["1"] @ scaled.mats["1"] - scaled.mats["1"]) > 1e-6:
        with pytest.raises(qr.PreconditionError):
            qr.decompose_with(r, scaled)


def test_decompose_round_trip_through_found_idempotent(rng):
    q = qr.kronecker_quiver()
    for trial in range(10):
        r1 = random_rep(q, {"1": 1, "2": 2}, rng)
        r2 = random_rep(q, {"1": 1, "2": 1}, rng)
        both = qr.direct_sum(r1, r2)
        phi = {"1": rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
               "2": rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))}
        hidden = qr.conjugate(both, phi)
        e = qr.find_nontrivial_idempotent(qr.end_basis(hidden), seed=trial)
        assert e is not None
        parts = qr.decompose_with(hidden, e)
        got = sorted([parts.first.dim_vector, parts.second.dim_vector])
        assert got == sorted([r1.dim_vector, r2.dim_vector])


def test_a_nan_residual_ratio_counts_as_infinite():
    # |f| overflows, so |f| |T_2| = inf * 0 makes the scale NaN; the pair does not intertwine
    r = qr.new_rep(qr.kronecker_quiver(), {"1": 1, "2": 2}, {"a": [[1e308], [1e308]], "b": [[0], [1e308]]})
    assert qr.make_hom(r, r, {"1": 10 * np.eye(1), "2": np.zeros((2, 2))}).residual == np.inf
    # 0 / inf stays 0: the scalars intertwine exactly
    assert qr.make_hom(r, r, {"1": np.eye(1), "2": np.eye(2)}).residual == 0.0


def test_make_hom_rejects_a_block_for_a_vertex_it_lacks():
    r = qr.new_rep(qr.kronecker_quiver(), {"1": 1, "2": 1}, {"a": [[1.0]], "b": [[0.0]]})
    with pytest.raises(ValueError, match="unknown vertices"):
        qr.make_hom(r, r, {"1": np.eye(1), "3": np.eye(1)})


def test_types_that_hold_arrays_compare_by_identity(rng):
    r = random_rep(qr.kronecker_quiver(), {"1": 2, "2": 2}, rng)
    pair = qr.OperatorPair(np.eye(2), qr.jordan_block(2))
    objects = [r, qr.identity_hom(r), qr.end_basis(r), qr.reflect_sink(r, "2"), pair, pair.system,
               qr.subspace_system_end(pair.system)]
    for x in objects:
        assert x in [x] and x == x
    assert len(set(objects)) == len(objects)
    assert copy.copy(r) not in [r]


_K, _A2 = qr.kronecker_quiver(), qr.an_quiver(2)
_K11 = rep.new_rep(_K, {"1": 1, "2": 1}, {"a": [[1.0]], "b": [[2.0]]})


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: rep.new_rep(_K, {"1": -1}), "negative"),
        (lambda: rep.direct_sum(rep.zero_rep(_K), rep.zero_rep(_A2)), "same quiver"),
        (lambda: rep.make_hom(rep.zero_rep(_K), rep.zero_rep(_A2), {}), "same quiver"),
        (lambda: rep.make_hom(_K11, _K11, {"1": np.eye(2)}), "shape"),
        (lambda: rep.conjugate(_K11, {"9": np.eye(1)}), "unknown vertex"),
        (lambda: rep.conjugate(_K11, {"1": np.eye(2)}), "shape"),
    ],
    ids=["negative-dim", "direct-sum-across-quivers", "hom-across-quivers", "hom-block-shape",
         "conjugate-unknown-vertex", "conjugate-block-shape"],
)
def test_rep_rejects_malformed_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_conjugate_gives_a_vertex_left_out_of_phi_the_identity(rng):
    r = random_rep(_K, {"1": 2, "2": 3}, rng)
    phi = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    c = rep.conjugate(r, {"2": phi})
    for a in ("a", "b"):
        assert np.allclose(c.mats[a], phi @ r.mats[a], rtol=1e-14, atol=0)
