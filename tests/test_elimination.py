"""The End solver against the full Kronecker systems it reduces.

`hom_basis` does not solve for a vertex block that an isometric arrow
determines, nor for a vertex block that its arms determine through a square
invertible F = [f_1 ... f_k].  `subspace_system_end` reads End of a subspace
system off End of its inclusion representation: two complementary arms
determine the ambient block, and the other arms are eliminated, which leaves
their subspace conditions in complement form.  Here every reduced answer is
compared with the nullspace of the full system over all blocks, assembled in
this file from `linalg.left/right_mult_matrix` (for subspace systems: the
projector stack kron(1 - P, P^T)) and factored with its own SVD.
"""

import numpy as np
import pytest

from quivrep import builders, linalg, new_quiver, new_rep
from quivrep.config import SVD_FACTOR
from quivrep.hom import end_basis, hom_basis
from quivrep.opmodels import (
    OperatorPair,
    four_subspace_from_pair,
    jordan_block,
    kron_pair_bilateral,
    kron_pair_shift_rank_one,
    subspace_system_end,
    subspace_system_rep,
)
from quivrep.rep import direct_sum
from conftest import random_rep


def _full_hom_system(r1, r2):
    q = r1.quiver
    offsets, pos = {}, 0
    for v in q.vertices:
        offsets[v] = slice(pos, pos + r2.dims[v] * r1.dims[v])
        pos += r2.dims[v] * r1.dims[v]
    blocks = []
    for a in q.arrows:
        rows = r2.dims[a.dst] * r1.dims[a.src]
        if rows == 0:
            continue
        block = np.zeros((rows, pos), dtype=complex)
        block[:, offsets[a.dst]] += linalg.right_mult_matrix(r1.mats[a.name], r2.dims[a.dst])
        block[:, offsets[a.src]] -= linalg.left_mult_matrix(r2.mats[a.name], r1.dims[a.src])
        blocks.append(block)
    return np.vstack(blocks) if blocks else np.zeros((0, pos), dtype=complex)


def _svd_nullspace(system, floor=0.0):
    if system.shape[0] == 0:
        return np.eye(system.shape[1], dtype=complex)
    # a thin factorization still has every right singular vector of a tall system
    _, s, vh = np.linalg.svd(system, full_matrices=system.shape[0] < system.shape[1])
    cutoff = max(s[0], floor) * max(system.shape) * SVD_FACTOR
    return vh[int(np.sum(s > cutoff)) :].conj().T


def _flat(hb):
    vertices = hb.source.quiver.vertices
    cols = [np.concatenate([h.mats[v].reshape(-1) for v in vertices]) for h in hb.basis]
    total = sum(hb.target.dims[v] * hb.source.dims[v] for v in vertices)
    return np.array(cols).T if cols else np.zeros((total, 0), dtype=complex)


def _assert_same_space(basis, oracle):
    assert basis.shape[1] == oracle.shape[1]
    m = basis.shape[1]
    assert np.linalg.norm(basis.conj().T @ basis - np.eye(m)) <= 1e-12
    assert np.linalg.norm(basis @ basis.conj().T - oracle @ oracle.conj().T) <= 1e-8


def _injection(rng, ambient, k):
    g = rng.standard_normal((ambient, k)) + 1j * rng.standard_normal((ambient, k))
    return np.linalg.qr(g)[0][:, :k]


def _star(dims, mats):
    q = new_quiver(["1", "2", "3", "4", "5"], [(f"a{i}", str(i), "5") for i in range(1, 5)], name="star")
    return new_rep(q, dims, mats)


def _conditioned_star(rng, cond):
    """Star 1, 2 -> 5 (dims 2, 2, 4) with F = [f_1 f_2] of condition number `cond`,
    beside two random one-dimensional arms."""
    u, v = (np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0] for _ in range(2))
    f = u @ np.diag(np.geomspace(1.0, 1.0 / cond, 4)) @ v
    mats = {"a1": f[:, :2], "a2": f[:, 2:]}
    for a in ("a3", "a4"):
        mats[a] = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
    return _star({"1": 2, "2": 2, "3": 1, "4": 1, "5": 4}, mats)


def _kronecker(rng, dims, a=None):
    q = new_quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")], name="K2")
    r = random_rep(q, dims, rng)
    return r if a is None else new_rep(q, dims, {"a": a, "b": r.mats["b"]})


def _pair(kind):
    if kind == "shift-rank-one":
        return kron_pair_shift_rank_one("seq:reciprocal", "seq:one-minus-pow:2", 4)
    if kind == "bilateral":
        return kron_pair_bilateral("seq:exp-neg-pow:1.1:even", "seq:exp-neg-pow:1.1:odd", 2)
    return OperatorPair(np.eye(4, dtype=complex), jordan_block(4, 0.5), tag="graph")


def _case(name):
    """(source, target, number of unknowns the reduced system should keep)."""
    rng = np.random.default_rng(5)
    op = jordan_block(2, 0.3) + 0.1 * np.eye(2)
    if name in ("d4tilde", "d6tilde", "e6tilde", "e8tilde"):
        r = builders.build_extended_dynkin(name, op)
        center = max(r.dims.values())
        # in d4tilde the center, in d6tilde vertex 7 is determined by two arms
        # of half its dimension; 1, 2, 5 and 6 are eliminated through it
        return r, r, center * center // (2 if name.startswith("d") else 1)
    if name.startswith("pair-"):
        # E1 = H + 0 and E2 = 0 + H determine the center
        r = subspace_system_rep(four_subspace_from_pair(_pair(name[len("pair-") :])))
        return r, r, max(r.dims.values()) ** 2 // 2
    if name == "kronecker-identity":
        # a = 1: T_2 = T_1, and only arrow b keeps rows
        r = _kronecker(rng, {"1": 3, "2": 3}, a=np.eye(3))
        return r, r, 9
    if name == "kronecker-1-2":
        # [a b] is square: End is T_1 alone, with no rows left
        r = _kronecker(rng, {"1": 1, "2": 2})
        return r, r, 1
    if name == "kronecker-1-2-into-2-3":
        r1 = _kronecker(rng, {"1": 1, "2": 2})
        return r1, _kronecker(rng, {"1": 2, "2": 3}), 2
    if name == "star-singular-arms":
        # cond F > 1/TOL: the rule does not fire and every block is solved for
        r = _conditioned_star(rng, 1e11)
        return r, r, 4 + 4 + 1 + 1 + 16
    if name == "star-conditioned-arms":
        # cond F = 1e6: the center is determined by arms 1 and 2
        r = _conditioned_star(rng, 1e6)
        return r, r, 4 + 4 + 1 + 1
    if name == "star-mixed":
        dims = {"1": 2, "2": 1, "3": 2, "4": 2, "5": 4}
        mats = {"a1": _injection(rng, 4, 2), "a2": _injection(rng, 4, 1)}
        for a, k in (("a3", 2), ("a4", 2)):
            mats[a] = rng.standard_normal((4, k)) + 1j * rng.standard_normal((4, k))
        r = _star(dims, mats)
        return r, r, 16 + 4 + 4
    if name == "c3-unimodular":
        q = new_quiver(["1", "2", "3"], [("e1", "1", "2"), ("e2", "2", "3"), ("e3", "3", "1")], name="C3")
        scalars = np.exp(2j * np.pi * rng.uniform(size=3))
        r = new_rep(q, {"1": 1, "2": 1, "3": 1}, {f"e{i + 1}": [[z]] for i, z in enumerate(scalars)})
        return r, r, 1
    if name == "zero-arm":
        dims = {"1": 2, "2": 0, "3": 1, "4": 2, "5": 3}
        mats = {f"a{i}": _injection(rng, 3, dims[str(i)]) for i in (1, 3, 4)}
        r = _star(dims, mats)
        # arms 1, 2 (empty) and 3 fill the center and determine it
        return r, r, 4 + 0 + 1
    # Hom(r1, r2) with r1 = r2 + a random summand: the isometries are r2's
    r2 = _star({"1": 1, "2": 2, "3": 1, "4": 2, "5": 3}, {f"a{i}": _injection(rng, 3, k)
                                                        for i, k in ((1, 1), (2, 2), (3, 1), (4, 2))})
    extra = random_rep(r2.quiver, {"1": 1, "2": 0, "3": 1, "4": 1, "5": 2}, rng)
    r1 = direct_sum(r2, extra)
    return r1, r2, 3 * 5


CASES = ["d4tilde", "d6tilde", "e6tilde", "e8tilde", "pair-shift-rank-one", "pair-bilateral", "pair-graph",
         "kronecker-identity", "kronecker-1-2", "kronecker-1-2-into-2-3", "star-singular-arms",
         "star-conditioned-arms", "star-mixed", "c3-unimodular", "zero-arm", "hom-distinct"]


@pytest.mark.parametrize("name", CASES)
def test_reduced_hom_matches_full_system(name):
    r1, r2, unknowns = _case(name)
    hb = hom_basis(r1, r2)
    assert hb.system_shape[1] == unknowns
    _assert_same_space(_flat(hb), _svd_nullspace(_full_hom_system(r1, r2)))
    assert all(h.residual <= 1e-10 for h in hb.basis)
    assert hb.dim > 0


@pytest.mark.parametrize("kind", ["shift-rank-one", "bilateral", "graph"])
def test_complement_form_matches_projector_stack(kind):
    system = four_subspace_from_pair(_pair(kind))
    d = system.ambient
    stack = np.vstack([np.kron(np.eye(d) - j @ j.conj().T, (j @ j.conj().T).T) for j in system.injections])
    se = subspace_system_end(system)
    basis = np.array([t.reshape(-1) for t in se.basis]).T
    # the projector stack's honest scale is max(sigma_1, 1)
    _assert_same_space(basis, _svd_nullspace(stack, floor=1.0))
    assert se.max_residual <= 1e-10
    # the representation route factors the same system
    assert end_basis(subspace_system_rep(system)).system_shape == se.system_shape


def test_e8tilde_end_factors_only_the_center():
    eb = end_basis(builders.build_extended_dynkin("e8tilde", jordan_block(2)))
    assert eb.system_shape[1] == 144  # 12^2 instead of 480


def test_four_subspace_system_is_square():
    pair = kron_pair_shift_rank_one("seq:reciprocal", "seq:one-minus-pow:2", 6)
    # the ambient C^12 is determined by E1 and E2: 72 unknowns, 36 rows each for E3 and E4
    assert subspace_system_end(four_subspace_from_pair(pair)).system_shape == (72, 72)


def test_end_of_the_kronecker_1_2_rep_factors_no_rows():
    r, _, _ = _case("kronecker-1-2")
    assert end_basis(r).system_shape == (0, 1)


def test_without_isometric_arrows_the_basis_is_the_full_nullspace():
    # the arms of vertex 2 fill 2 of its 3 source columns, so neither rule fires
    rng = np.random.default_rng(2)
    q = new_quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")], name="K2")
    for dims1, dims2 in (({"1": 2, "2": 3}, {"1": 2, "2": 3}), ({"1": 1, "2": 3}, {"1": 2, "2": 3})):
        r1, r2 = random_rep(q, dims1, rng), random_rep(q, dims2, rng)
        for src, dst in ((r1, r1), (r1, r2)):
            hb = hom_basis(src, dst)
            system = _full_hom_system(src, dst)
            assert hb.system_shape == system.shape
            assert np.array_equal(_flat(hb), linalg.nullspace(system))
