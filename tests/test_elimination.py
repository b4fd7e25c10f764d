"""The End solver against the full Kronecker systems it reduces.

`hom_basis` runs one block-pivot elimination: it solves for every vertex block
that some row blocks determine (an isometric or injective arrow, arms that fill
their head, rows kept from earlier pivots) and factors only what is left,
or the full system when what is left has a gap too close to its cutoff.
`subspace_system_end` reads End of a subspace system off End of its inclusion
representation.  Here every reduced answer is compared with the nullspace of
the full system over all blocks, assembled in this file from
`left_mult_matrix`/`right_mult_matrix` (for subspace systems: the projector
stack kron(1 - P, P^T)) and factored with its own SVD.

`hom_basis` plans only systems of at least SPLIT_MIN_COLS columns; most inputs
here are smaller, so the threshold is lowered to 0 for every test but those
of the direct path, which set it back.
"""

import numpy as np
import pytest

from quivrep import builders, linalg, new_quiver, new_rep
from quivrep.config import SPLIT_MIN_COLS, SVD_FACTOR
from quivrep.hom import end_basis, hom_basis, is_indecomposable
from quivrep.opmodels import (
    OperatorPair,
    four_subspace_from_pair,
    jordan_block,
    kron_pair_bilateral,
    kron_pair_shift_rank_one,
    subspace_system_end,
    subspace_system_rep,
)
from quivrep.rep import direct_sum, idempotent_fault
from conftest import random_rep


@pytest.fixture(autouse=True)
def plan_every_system(monkeypatch):
    monkeypatch.setattr(linalg, "SPLIT_MIN_COLS", 0)


def left_mult_matrix(c, ncols: int) -> np.ndarray:
    """M with M @ vec(T) = vec(C @ T) for row-major vec and T with `ncols` columns."""
    return np.kron(np.asarray(c, dtype=complex), np.eye(ncols))


def right_mult_matrix(b, nrows: int) -> np.ndarray:
    """M with M @ vec(T) = vec(T @ B) for row-major vec and T with `nrows` rows."""
    return np.kron(np.eye(nrows), np.asarray(b, dtype=complex).T)


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
        block[:, offsets[a.dst]] += right_mult_matrix(r1.mats[a.name], r2.dims[a.dst])
        block[:, offsets[a.src]] -= left_mult_matrix(r2.mats[a.name], r1.dims[a.src])
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
        # D~n: two arms of half its dimension determine a vertex of the path, the
        # other arms are eliminated through it, and the rows they keep determine
        # one of the two: k^2 unknowns.  E~n: only the center is left.
        return r, r, center * center // (4 if name.startswith("d") else 1)
    if name.startswith("pair-"):
        # E1 = H + 0 and E2 = 0 + H determine the center, E3 and E4 are eliminated
        # through it, and E4's rows (T1 - T2)/2 = 0 determine T1: n^2 unknowns
        r = subspace_system_rep(four_subspace_from_pair(_pair(name[len("pair-") :])))
        return r, r, max(r.dims.values()) ** 2 // 4
    if name == "kronecker-identity":
        # a = 1: T_2 = T_1, and only arrow b keeps rows
        r = _kronecker(rng, {"1": 3, "2": 3}, a=np.eye(3))
        return r, r, 9
    if name == "kronecker-jordan":
        # a = J_3(0) is singular and b = 1 determines T_2 = T_1: the Sylvester
        # rows of a are left
        q = new_quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")], name="K2")
        r = new_rep(q, {"1": 3, "2": 3}, {"a": jordan_block(3, 0.0), "b": np.eye(3)})
        return r, r, 9
    if name == "kronecker-1-2":
        # [a b] is square: End is T_1 alone, with no rows left
        r = _kronecker(rng, {"1": 1, "2": 2})
        return r, r, 1
    if name == "kronecker-1-2-into-2-3":
        r1 = _kronecker(rng, {"1": 1, "2": 2})
        return r1, _kronecker(rng, {"1": 2, "2": 3}), 2
    if name == "star-singular-arms":
        # cond F = 1e11: no set of arms determines the center well enough; the
        # one-dimensional arms are eliminated through it, but the rows left have
        # a gap within 1/PIVOT_TOL of the cutoff, so the full system is factored
        r = _conditioned_star(rng, 1e11)
        return r, r, 4 + 4 + 1 + 1 + 16
    if name == "star-conditioned-arms":
        # cond F = 1e6: arms 4, 3 and 1 determine the center with a better
        # conditioned F than arms 1 and 2, and arm 2's rows determine T_1
        r = _conditioned_star(rng, 1e6)
        return r, r, 4 + 1 + 1
    if name == "star-mixed":
        dims = {"1": 2, "2": 1, "3": 2, "4": 2, "5": 4}
        mats = {"a1": _injection(rng, 4, 2), "a2": _injection(rng, 4, 1)}
        for a, k in (("a3", 2), ("a4", 2)):
            mats[a] = rng.standard_normal((4, k)) + 1j * rng.standard_normal((4, k))
        # two arms of 2 columns determine the center (a1 + a2, in quiver order,
        # would stop at 3), the other two are eliminated through it, and the rows
        # they keep determine one arm of the pair: T_4 is left
        r = _star(dims, mats)
        return r, r, 4
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
    # arms 1 and 4 determine the center, arms 2 and 3 are eliminated through it,
    # and the rows arm 3 keeps determine T_1: T_4 (2 x 3) is left
    return r1, r2, 2 * 3


CASES = ["d4tilde", "d6tilde", "e6tilde", "e8tilde", "pair-shift-rank-one", "pair-bilateral", "pair-graph",
         "kronecker-identity", "kronecker-jordan", "kronecker-1-2", "kronecker-1-2-into-2-3", "star-singular-arms",
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


def _factored_columns(monkeypatch):
    """The column counts of the SVDs `hom_basis` takes to factor what the elimination leaves."""
    widths, inside = [], []
    factor, svd = linalg.nullspace_with_values, np.linalg.svd

    def traced_factor(*args, **kwargs):
        inside.append(True)
        try:
            return factor(*args, **kwargs)
        finally:
            inside.pop()

    def traced_svd(a, *args, **kwargs):
        if inside:
            widths.append(np.shape(a)[-1])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "nullspace_with_values", traced_factor)
    monkeypatch.setattr(linalg.np.linalg, "svd", traced_svd)
    return widths


def test_a_direct_sum_is_factored_one_block_at_a_time(monkeypatch):
    widths = _factored_columns(monkeypatch)
    r = builders.build_extended_dynkin("e6tilde", np.diag([1.0, 2.0, 3.0, 4.0]))
    eb = end_basis(r)
    # the 144 unknowns fall into 16 blocks of 9 (one 9 x 9 block per pair of eigenvalues)
    assert widths and max(widths) <= 9
    assert eb.system_shape == (144, 144) and eb.dim == 4
    assert [(p.vertex, p.arrows) for p in eb.pivots] == [
        ("1", ("a1",)), ("1'", ("a1'",)), ("1''", ("a1''",)), ("2", ("a2",)), ("2'", ("a2'",)), ("2''", ("a2''",))]
    verdict = is_indecomposable(r)
    assert verdict.kind == "decomposable"
    assert idempotent_fault(verdict.witness) is None


def test_a_single_jordan_block_is_factored_whole(monkeypatch):
    widths = _factored_columns(monkeypatch)
    eb = end_basis(builders.build_extended_dynkin("e6tilde", jordan_block(4, 0.5)))
    assert widths == [144] and eb.system_shape == (144, 144) and eb.dim == 4


@pytest.mark.parametrize("arrow, dim", [(None, 64), (np.eye(8), 64), (np.zeros((8, 8)), 128)],
                         ids=["one vertex", "identity arrow", "zero arrow"])
def test_a_system_with_no_nonzero_entry_is_factored_whole(arrow, dim):
    # one vertex of dimension 8 leaves 64 columns and no rows, and so does an identity
    # arrow once its pivot has determined the head block; a zero arrow leaves zero rows
    if arrow is None:
        r = new_rep(new_quiver(["1"], []), {"1": 8})
    else:
        r = new_rep(new_quiver(["1", "2"], [("a", "1", "2")]), {"1": 8, "2": 8}, {"a": arrow})
    eb = end_basis(r)
    assert eb.dim == dim and eb.system_shape[1] >= linalg.SPLIT_MIN_COLS


def test_four_subspace_system_is_square():
    pair = kron_pair_shift_rank_one("seq:reciprocal", "seq:one-minus-pow:2", 6)
    # E1 and E2 determine the ambient C^12, E3 and E4 are eliminated through it,
    # and E4's rows determine T1 = T2: 36 unknowns and E3's 36 rows
    assert subspace_system_end(four_subspace_from_pair(pair)).system_shape == (36, 36)


def test_end_of_the_kronecker_1_2_rep_factors_no_rows():
    r, _, _ = _case("kronecker-1-2")
    assert end_basis(r).system_shape == (0, 1)


def test_the_arm_pick_finds_arms_that_fill_their_head():
    r, _, _ = _case("star-mixed")
    center = next(p for p in end_basis(r).pivots if p.vertex == "5")
    assert len(center.arrows) == 2 and "a2" not in center.arrows
    r, _, _ = _case("kronecker-jordan")
    eb = end_basis(r)
    assert eb.system_shape == (9, 9) and [p.arrows for p in eb.pivots] == [("b",)]


def test_a_plan_whose_gap_nears_the_cutoff_is_dropped(monkeypatch):
    shapes = []
    factor = linalg.nullspace_with_values

    def spy(a, *args):
        shapes.append(np.shape(a))
        return factor(a, *args)

    monkeypatch.setattr(linalg, "nullspace_with_values", spy)
    r, _, _ = _case("star-singular-arms")
    eb = end_basis(r)
    full = _full_hom_system(r, r).shape
    assert eb.pivots == () and eb.system_shape == full
    # the plan is factored, then the full system as it stands
    assert len(shapes) == 2 and shapes[0] != full and shapes[1] == full
    shapes.clear()
    r, _, _ = _case("kronecker-jordan")
    eb = end_basis(r)
    assert eb.pivots and shapes == [eb.system_shape]  # a kept plan factors once


def test_without_isometric_arrows_the_basis_is_the_full_nullspace():
    # g is wide at vertex 1 and each f has more columns than vertex 2 has rows,
    # so no block pivot exists and the full system is factored as it is
    rng = np.random.default_rng(2)
    q = new_quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")], name="K2")
    for dims1, dims2 in (({"1": 3, "2": 2}, {"1": 3, "2": 2}), ({"1": 3, "2": 2}, {"1": 2, "2": 1})):
        r1, r2 = random_rep(q, dims1, rng), random_rep(q, dims2, rng)
        for src, dst in ((r1, r1), (r1, r2)):
            hb = hom_basis(src, dst)
            system = _full_hom_system(src, dst)
            assert hb.pivots == () and hb.system_shape == system.shape
            assert np.array_equal(_flat(hb), linalg.nullspace(system))


def _arrow(rng, kind, rows, cols):
    if kind == "integer":
        return rng.integers(-1, 2, size=(rows, cols)).astype(complex)
    m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    if kind == "isometric":  # orthonormal columns, or rows when wide
        return np.linalg.qr(m)[0] if rows >= cols else np.linalg.qr(m.T)[0].T
    if kind == "injective":  # when tall: columns scaled over two decades
        return m * np.geomspace(1.0, 1e-2, cols)
    return m


def _random_quiver_reps(rng):
    vertices = [str(i) for i in range(1, int(rng.integers(2, 6)) + 1)]
    arrows = [(f"x{i}", *map(str, rng.choice(vertices, 2, replace=rng.random() < 0.1)))
              for i in range(int(rng.integers(1, len(vertices) + 2)))]
    q = new_quiver(vertices, arrows, name="random")

    def rep(dims):
        kinds = rng.choice(["random", "integer", "isometric", "injective"], size=len(arrows))
        return new_rep(q, dims, {a: _arrow(rng, k, dims[t], dims[s]) for (a, s, t), k in zip(arrows, kinds)})

    r1 = rep({v: int(rng.integers(0, 4)) for v in vertices})
    return r1, (r1 if rng.random() < 0.5 else rep({v: int(rng.integers(0, 4)) for v in vertices}))


def test_random_quivers_match_the_full_system():
    rng = np.random.default_rng(11)
    fired = 0
    for _ in range(200):
        r1, r2 = _random_quiver_reps(rng)
        hb = hom_basis(r1, r2)
        fired += bool(hb.pivots)
        system = _full_hom_system(r1, r2)
        if system.shape[1] == 0:
            assert hb.dim == 0
            continue
        _assert_same_space(_flat(hb), _svd_nullspace(system))
        assert hb.max_residual <= 1e-10
    assert fired >= 60


def _factored_shapes(monkeypatch):
    """The shapes `hom_basis` passes to `linalg.nullspace_with_values`, with the threshold back at its value."""
    monkeypatch.setattr(linalg, "SPLIT_MIN_COLS", SPLIT_MIN_COLS)
    shapes = []
    factor = linalg.nullspace_with_values

    def spy(a, *args):
        shapes.append(np.shape(a))
        return factor(a, *args)

    monkeypatch.setattr(linalg, "nullspace_with_values", spy)
    return shapes


def test_a_system_under_the_threshold_is_factored_whole(monkeypatch):
    shapes = _factored_shapes(monkeypatch)
    rng = np.random.default_rng(3)
    dims = {"1": 1, "2": 1, "3": 2, "4": 3, "5": 4}
    r = _star(dims, {f"a{i}": _injection(rng, 4, dims[str(i)]) for i in range(1, 5)})
    eb = end_basis(r)
    system = _full_hom_system(r, r)
    assert system.shape[1] == 31 and eb.pivots == () and eb.system_shape == system.shape
    assert shapes == [system.shape]
    _assert_same_space(_flat(eb), _svd_nullspace(system))


def test_a_system_at_the_threshold_keeps_its_plan(monkeypatch):
    shapes = _factored_shapes(monkeypatch)
    r = builders.build_extended_dynkin("d4tilde", jordan_block(3))
    eb = end_basis(r)
    assert _full_hom_system(r, r).shape[1] == 72
    assert eb.pivots and eb.system_shape[1] == 9 and shapes == [eb.system_shape]


def test_a_small_system_that_overflows_whole_is_planned(monkeypatch):
    shapes = _factored_shapes(monkeypatch)
    # [a b] determines vertex 2, so the plan factors T_1 alone and never meets 1e308 * 1e308
    q = new_quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")], name="K2")
    r = new_rep(q, {"1": 1, "2": 2}, {"a": [[1e308], [1e308]], "b": [[0.0], [1e308]]})
    eb = end_basis(r)
    assert eb.pivots and eb.system_shape == (0, 1) and eb.dim == 1
    assert shapes == [(4, 5), (0, 1)]


def test_direct_and_planned_hom_dimensions_agree(monkeypatch):
    rng = np.random.default_rng(13)
    kinds = set()
    for _ in range(60):
        # the quivers and dimensions of `_random_quiver_reps`, with generic arrows
        r1, r2 = (random_rep(r.quiver, r.dims, rng) for r in _random_quiver_reps(rng))
        planned = hom_basis(r1, r2)
        monkeypatch.setattr(linalg, "SPLIT_MIN_COLS", SPLIT_MIN_COLS)
        direct = hom_basis(r1, r2)
        monkeypatch.setattr(linalg, "SPLIT_MIN_COLS", 0)
        assert direct.pivots == () and direct.dim == planned.dim
        kinds.add((bool(planned.pivots), min(planned.dim, 2)))
    assert kinds >= {(True, 1), (True, 2), (False, 0)}
