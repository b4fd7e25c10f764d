import unittest

import numpy as np
import pytest

import quivrep as qr
from quivrep.linalg import connected_components


def _instances(n):
    """All distinct 0/1 reps of the one-way n-cycle.

    Scalars are enumerated only on arrows whose two endpoints are both
    one-dimensional; an arrow touching a zero space carries the empty matrix
    whatever the scalar, so other patterns would repeat the same rep.
    """
    for dim_bits in range(2**n):
        dims = tuple((dim_bits >> i) & 1 for i in range(n))
        live = [i for i in range(n) if dims[i] and dims[(i + 1) % n]]
        for arr_bits in range(2 ** len(live)):
            scalars = [0.0] * n
            for j, i in enumerate(live):
                scalars[i] = float((arr_bits >> j) & 1)
            yield dims, tuple(scalars)


def _transitive_set(n):
    out = set()
    for dims, scalars in _instances(n):
        r = qr.cycle_rep(list(dims), list(scalars))
        if not r.is_zero and qr.end_basis(r).dim == 1:
            out.add((dims, scalars))
    return out


class CycleClassification(unittest.TestCase):
    def test_c2_exact_case_list(self):
        # three case families; five distinct transitive instances
        cases = {
            ((1, 0), (0.0, 0.0)),
            ((0, 1), (0.0, 0.0)),
            ((1, 1), (1.0, 0.0)),
            ((1, 1), (0.0, 1.0)),
            ((1, 1), (1.0, 1.0)),
        }
        self.assertEqual(_transitive_set(2), cases)

    def test_c3_exact_case_list(self):
        # seven case families; ten distinct transitive instances
        singletons = {
            ((1, 0, 0), (0.0, 0.0, 0.0)),
            ((0, 1, 0), (0.0, 0.0, 0.0)),
            ((0, 0, 1), (0.0, 0.0, 0.0)),
        }
        adjacent_pairs = {
            ((1, 1, 0), (1.0, 0.0, 0.0)),
            ((0, 1, 1), (0.0, 1.0, 0.0)),
            ((1, 0, 1), (0.0, 0.0, 1.0)),
        }
        full_support = {
            ((1, 1, 1), (1.0, 1.0, 0.0)),
            ((1, 1, 1), (1.0, 0.0, 1.0)),
            ((1, 1, 1), (0.0, 1.0, 1.0)),
            ((1, 1, 1), (1.0, 1.0, 1.0)),
        }
        self.assertEqual(_transitive_set(3), singletons | adjacent_pairs | full_support)

    def test_criterion_agrees_with_solver_exhaustively(self):
        for n in (2, 3, 4):
            for dims, scalars in _instances(n):
                r = qr.cycle_rep(list(dims), list(scalars))
                direct = (not r.is_zero) and qr.end_basis(r).dim == 1
                self.assertEqual(qr.cn_transitive_criterion(r), direct,
                                 f"n={n} dims={dims} scalars={scalars}")


def test_components_of_fully_supported_chain():
    r = qr.cycle_rep([1, 1, 1], [1.0, 1.0, 0.0])
    assert qr.hf_components(r) == [(1, 2, 3)]


def test_components_all_isolated():
    r = qr.cycle_rep([1, 1, 1], [0.0, 0.0, 0.0])
    assert qr.hf_components(r) == [(1,), (2,), (3,)]


def test_components_follow_a_cycle_declared_against_its_arrows():
    q = qr.new_quiver(["1", "2", "3"], [("x", "3", "1"), ("y", "1", "2"), ("z", "2", "3")])
    r = qr.new_rep(q, {"1": 1, "2": 1, "3": 1}, {"x": [[0.0]], "y": [[2.0]], "z": [[0.0]]})
    assert qr.hf_components(r) == [(1, 2), (3,)]


def test_connected_components_order():
    assert connected_components(0, []) == []
    assert connected_components(3, []) == [[0], [1], [2]]
    assert connected_components(5, [(4, 1), (3, 0)]) == [[0, 3], [1, 4], [2]]


def test_components_use_the_wrap_around_arrow():
    # the live chain is 3 -> 4 -> 1, crossing the wrap arrow 4 -> 1
    r = qr.cycle_rep([1, 0, 1, 1], [0.0, 0.0, 1.0, 1.0])
    assert qr.hf_components(r) == [(1, 3, 4)]
    assert qr.cn_transitive_criterion(r)
    assert qr.end_basis(r).dim == 1


def test_components_reject_higher_dims():
    r = qr.cycle_rep([2, 1], [np.ones((1, 2)), np.ones((2, 1))])
    with pytest.raises(qr.PreconditionError):
        qr.hf_components(r)
    assert qr.cn_transitive_criterion(r) is False


def test_criterion_rejects_single_vertex_loop():
    # the loop is rejected before any dimension is read, so dimension 2 raises too
    for r in (qr.cycle_rep([1], [1.0]), qr.cycle_rep([2], [np.eye(2)])):
        with pytest.raises(qr.PreconditionError, match="one-vertex cycle is a loop"):
            qr.cn_transitive_criterion(r)


def test_criterion_false_on_zero_rep():
    assert qr.cn_transitive_criterion(qr.cycle_rep([0, 0, 0], [0.0, 0.0, 0.0])) is False


def test_reduce_zero_vertex_worked_example():
    # three-cycle with a dead middle vertex: the two arrows through it merge
    # to a zero arrow, the remaining arrow carries over
    r = qr.cycle_rep([1, 0, 1], [0.0, 0.0, 2.0])
    small = qr.reduce_zero_vertex(r, 2)
    assert small.quiver.vertices == ("1", "2")
    assert small.dim_vector == (1, 1)
    assert np.array_equal(small.mats["a1"], np.zeros((1, 1)))
    assert np.array_equal(small.mats["a2"], np.array([[2.0 + 0j]]))


def test_reduce_zero_vertex_at_position_one():
    r = qr.cycle_rep([0, 1, 1], [0.0, 3.0, 0.0])
    small = qr.reduce_zero_vertex(r, 1)
    assert small.dim_vector == (1, 1)
    # old arrow 2 -> 3 survives; the wrap through the deleted vertex is zero
    flat = sorted(abs(complex(small.mats[a.name][0, 0])) for a in small.quiver.arrows)
    assert flat == [0.0, 3.0]


def test_reduce_zero_vertex_preserves_end_dim():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(3, 6))
        dims = [int(rng.integers(0, 3)) for _ in range(n)]
        dims[int(rng.integers(0, n))] = 0
        mats = []
        for i in range(n):
            shape = (dims[(i + 1) % n], dims[i])
            mats.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        r = qr.cycle_rep(dims, mats)
        before = qr.end_basis(r).dim
        for k in range(1, n + 1):
            if dims[k - 1] == 0:
                small = qr.reduce_zero_vertex(r, k)
                assert qr.end_basis(small).dim == before
                # arrow i runs from position i to i + 1 (0-based); arrow k - 1 goes with the vertex
                kept = [i for i in range(n) if i != k - 1]
                for j, i in enumerate(kept):
                    got = small.mats[f"a{j + 1}"]
                    if i == (k - 2) % n:  # into the removed vertex: now a zero map to its successor
                        assert got.shape == (dims[k % n], dims[i]) and not got.any()
                    else:
                        assert got.shape == mats[i].shape and got.tobytes() == mats[i].tobytes()


def test_reduce_zero_vertex_preconditions():
    r = qr.cycle_rep([1, 1], [1.0, 1.0])
    with pytest.raises(qr.PreconditionError):
        qr.reduce_zero_vertex(r, 1)  # n must stay >= 2 after removal
    r3 = qr.cycle_rep([1, 1, 0], [1.0, 0.0, 0.0])
    with pytest.raises(qr.PreconditionError):
        qr.reduce_zero_vertex(r3, 1)  # vertex 1 is not zero-dimensional


def test_no_transitive_rep_with_a_big_vertex():
    rng = np.random.default_rng(13)
    for _ in range(60):
        n = int(rng.integers(2, 5))
        dims = [int(rng.integers(0, 4)) for _ in range(n)]
        dims[int(rng.integers(0, n))] = int(rng.integers(2, 4))
        mats = []
        for i in range(n):
            shape = (dims[(i + 1) % n], dims[i])
            mats.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        r = qr.cycle_rep(dims, mats)
        assert qr.end_basis(r).dim != 1


if __name__ == "__main__":
    unittest.main()


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: qr.cycle_quiver(0), "n >= 1"),
        (lambda: qr.cycle_rep([1, 1], [1.0]), "need 2 arrow entries"),
        (lambda: qr.cycle_rep([2, 1], [1.0, 1.0]), "scalar entry needs 1 -> 1"),
        (lambda: qr.reduce_zero_vertex(qr.cycle_rep([0, 1, 1], [0.0, 1.0, 0.0]), 4), "position k"),
    ],
    ids=["no-vertex", "entry-count", "scalar-on-a-block", "position-out-of-range"],
)
def test_cyclic_rejects_malformed_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()
