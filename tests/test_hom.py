"""Intertwiner solver against an exact rational-arithmetic oracle.

The oracle writes the intertwiner equations entrywise over Fractions and
row-reduces; no shared code with the SVD route.  Integer inputs make the
rational answer exact, so the two dimension counts must agree exactly.
"""

import copy
import pickle
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import quivrep as qr
from quivrep import hom as hom_module
from quivrep import linalg, rep
from conftest import random_rep

# ---------------------------------------------------------------- oracle


def _rref_nullity(rows, ncols):
    """Nullity of a matrix given as a list of Fraction rows."""
    mat = [list(r) for r in rows]
    rank = 0
    col = 0
    while col < ncols and rank < len(mat):
        pivot = None
        for i in range(rank, len(mat)):
            if mat[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        mat[rank] = [x / pv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        col += 1
    return ncols - rank


def oracle_hom_dim(r1, r2):
    """dim Hom(r1, r2) for integer-entried reps, by exact elimination."""
    q = r1.quiver
    index = {}
    for v in q.vertices:
        for i in range(r2.dims[v]):
            for j in range(r1.dims[v]):
                index[(v, i, j)] = len(index)
    nvars = len(index)
    rows = []
    for a in q.arrows:
        f = r1.mats[a.name]
        g = r2.mats[a.name]
        # sum_k T[dst][i,k] f[k,j] - sum_k g[i,k] T[src][k,j] = 0
        for i in range(r2.dims[a.dst]):
            for j in range(r1.dims[a.src]):
                row = [Fraction(0)] * nvars
                for k in range(r1.dims[a.dst]):
                    row[index[(a.dst, i, k)]] += Fraction(int(round(f[k, j].real)))
                for k in range(r2.dims[a.src]):
                    row[index[(a.src, k, j)]] -= Fraction(int(round(g[i, k].real)))
                if any(x != 0 for x in row):
                    rows.append(row)
    if not rows:
        return nvars
    return _rref_nullity(rows, nvars)


def _bit_matrices(nrows, ncols):
    cells = nrows * ncols
    for bits in range(2**cells):
        yield np.array(
            [[(bits >> (i * ncols + j)) & 1 for j in range(ncols)] for i in range(nrows)],
            dtype=complex,
        ).reshape(nrows, ncols)


def _enumerate_reps(q, dim_choices):
    verts = q.vertices
    for dims_tuple in product(dim_choices, repeat=len(verts)):
        dims = dict(zip(verts, dims_tuple))
        arrow_shapes = [(a.name, dims[a.dst], dims[a.src]) for a in q.arrows]
        pools = [list(_bit_matrices(r, c)) for _, r, c in arrow_shapes]
        for combo in product(*pools):
            mats = {name: m for (name, _, _), m in zip(arrow_shapes, combo)}
            yield qr.new_rep(q, dims, mats)


@pytest.mark.parametrize("quiver", [qr.kronecker_quiver(), qr.cycle_quiver(2)])
def test_end_dim_matches_exact_oracle_exhaustively(quiver):
    checked = 0
    for r in _enumerate_reps(quiver, (0, 1, 2)):
        eb = qr.end_basis(r)
        expected = oracle_hom_dim(r, r)
        assert eb.dim == expected, (
            f"End dim mismatch on dims={r.dim_vector}: svd={eb.dim} oracle={expected}"
        )
        assert eb.max_residual <= 1e-10
        checked += 1
    assert checked == 297  # 4^(d1*d2) summed over dims in {0,1,2}^2


def test_end_dim_matches_oracle_on_loop_quiver():
    q = qr.jordan_quiver()
    v = q.vertices[0]
    for d in (1, 2):
        for m in _bit_matrices(d, d):
            r = qr.new_rep(q, {v: d}, {q.arrows[0].name: m})
            assert qr.end_basis(r).dim == oracle_hom_dim(r, r)


def test_hom_dim_matches_oracle_on_random_pairs():
    rng = np.random.default_rng(11)
    q = qr.kronecker_quiver()
    for _ in range(100):
        dims1 = {"1": int(rng.integers(0, 3)), "2": int(rng.integers(0, 3))}
        dims2 = {"1": int(rng.integers(0, 3)), "2": int(rng.integers(0, 3))}
        m1 = {a.name: rng.integers(0, 2, size=(dims1[a.dst], dims1[a.src])).astype(complex)
              for a in q.arrows}
        m2 = {a.name: rng.integers(0, 2, size=(dims2[a.dst], dims2[a.src])).astype(complex)
              for a in q.arrows}
        r1 = qr.new_rep(q, dims1, m1)
        r2 = qr.new_rep(q, dims2, m2)
        hb = qr.hom_basis(r1, r2)
        assert hb.dim == oracle_hom_dim(r1, r2)


# --------------------------------------------------- solver properties


def test_kronecker_identity_jordan_pair_has_end_dim_two():
    q = qr.kronecker_quiver()
    r = qr.new_rep(q, {"1": 2, "2": 2}, {"a": np.eye(2), "b": qr.jordan_block(2)})
    eb = qr.end_basis(r)
    assert eb.dim == 2
    assert not qr.is_transitive(r).transitive
    assert qr.is_indecomposable(r).kind == "indecomposable"


def test_basis_is_orthonormal_when_flattened(rng):
    q = qr.kronecker_quiver()
    r = random_rep(q, {"1": 3, "2": 2}, rng)
    eb = qr.end_basis(r)
    flat = np.array([np.concatenate([h.mats[v].reshape(-1) for v in q.vertices]) for h in eb.basis])
    gram = flat @ flat.conj().T
    assert np.allclose(gram, np.eye(eb.dim), atol=1e-10)


def test_hom_dim_invariant_under_taking_adjoints(rng):
    q = qr.cycle_quiver(3)
    for _ in range(20):
        dims1 = {v: int(rng.integers(0, 3)) for v in q.vertices}
        dims2 = {v: int(rng.integers(0, 3)) for v in q.vertices}
        r1 = random_rep(q, dims1, rng)
        r2 = random_rep(q, dims2, rng)
        forward = qr.hom_basis(r1, r2).dim
        backward = qr.hom_basis(qr.dual(r2), qr.dual(r1)).dim
        assert forward == backward


def test_hom_basis_of_zero_representations():
    q = qr.kronecker_quiver()
    zero = qr.zero_rep(q)
    hb = qr.hom_basis(zero, zero)
    assert hb.dim == 0 and hb.basis == []
    assert hb.system_shape == (0, 0) and hb.tol_used == 0.0 and hb.max_residual == 0.0
    assert all(b.shape == (0, 0, 0) for b in hb.blocks.values())
    r = qr.new_rep(q, {"1": 2, "2": 1}, {"a": [[1.0, 0.0]], "b": [[0.0, 1.0]]})
    for hb in (qr.hom_basis(zero, r), qr.hom_basis(r, zero)):
        assert hb.dim == 0 and hb.tol_used == 0.0
        assert all(hb.blocks[v].shape == (0, hb.target.dims[v], hb.source.dims[v]) for v in q.vertices)


def _count_residuals(monkeypatch):
    """Count calls of rep.hom_residual, under every name it is imported as."""
    calls = []
    original = rep.hom_residual

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in (rep, hom_module):
        monkeypatch.setattr(module, "hom_residual", counting)
    return calls


def test_is_indecomposable_computes_one_stacked_residual(monkeypatch):
    r = qr.build_extended_dynkin("d4tilde", qr.jordan_block(3))
    calls = _count_residuals(monkeypatch)
    verdict = qr.is_indecomposable(r)
    assert verdict.kind == "indecomposable" and verdict.end_dim == 3
    assert len(calls) == 0  # a verdict does not need the residual
    eb = qr.end_basis(r)  # the basis the verdict was read from
    assert eb is qr.end_basis(r) and eb.max_residual <= 1e-10 and len(calls) == 1
    assert eb.max_residual == qr.end_basis(r).max_residual and len(calls) == 1


def _star_rep(rng):
    star = qr.new_quiver(["1", "2", "3", "4"], [("a", "1", "4"), ("b", "2", "4"), ("c", "3", "4")])
    return random_rep(star, {"1": 1, "2": 1, "3": 1, "4": 2}, rng)


def test_end_is_solved_once_per_rep(monkeypatch, rng):
    r = _star_rep(rng)
    solves = []
    original = hom_module.hom_basis

    def counting(r1, r2):
        solves.append((r1, r2))
        return original(r1, r2)

    def ends_solved(x):
        return sum(r1 is x and r2 is x for r1, r2 in solves)

    monkeypatch.setattr(hom_module, "hom_basis", counting)
    eb = qr.end_basis(r)
    assert qr.is_transitive(r).end_dim == eb.dim
    assert qr.is_indecomposable(r).end_dim == eb.dim
    for v, direction in (("4", "plus"), ("1", "minus")):  # the sink and a source
        assert qr.verify_end_isomorphism(r, v, direction).end_dim == eb.dim
    assert qr.end_basis(r) is eb and ends_solved(r) == 1

    # equal content in a second Rep object: its own solve, returning what the first did
    twin = qr.new_rep(r.quiver, r.dims, r.mats)
    eb_twin = qr.end_basis(twin)
    assert eb_twin is not eb and ends_solved(twin) == 1
    assert all(eb_twin.blocks[v].tobytes() == eb.blocks[v].tobytes() for v in r.quiver.vertices)


def test_rep_matrices_and_end_stacks_are_read_only(rng):
    r = _star_rep(rng)
    eb = qr.end_basis(r)
    copies = [copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))]
    for array in (r.mats["a"], eb.blocks["4"], eb.basis[0].mats["4"], *(c.mats["a"] for c in copies)):
        with pytest.raises(ValueError):
            array[0, 0] = 1.0
    for c in copies:  # a copy is a new Rep: it solves its own End
        assert np.array_equal(c.mats["a"], r.mats["a"]) and "end" not in c._kept


def test_stacked_residual_is_the_largest_per_hom_residual(rng):
    star = qr.new_quiver(["1", "2", "3", "4"], [("a", "1", "4"), ("b", "2", "4"), ("c", "3", "4")])
    cases = [(qr.kronecker_quiver(), {"1": 2, "2": 3}), (qr.kronecker_quiver(), {"1": 3, "2": 1}),
             (star, {"1": 1, "2": 2, "3": 0, "4": 3}), (star, {"1": 2, "2": 2, "3": 2, "4": 2})]
    for q, dims in cases:
        r1 = random_rep(q, dims, rng)
        r2 = random_rep(q, dims, rng)
        for s, t in ((r1, r1), (r1, r2), (qr.direct_sum(r1, r2), r1)):
            hb = qr.hom_basis(s, t)
            # random blocks as well: residuals of order 1, not of roundoff
            m = 3
            blocks = {v: rng.standard_normal((m, t.dims[v], s.dims[v])) for v in q.vertices}
            for stacks, homs in ((hb.blocks, hb.basis),
                                 (blocks, [qr.make_hom(s, t, {v: b[i] for v, b in blocks.items()})
                                           for i in range(m)])):
                want = max((h.residual for h in homs), default=0.0)
                got = rep.hom_residual(s, t, stacks)
                assert abs(got - want) <= 1e-12 * want


def test_is_transitive_rejects_zero_rep():
    r = qr.zero_rep(qr.kronecker_quiver())
    with pytest.raises(qr.PreconditionError):
        qr.is_transitive(r)


def test_scalar_rep_is_transitive():
    q = qr.kronecker_quiver()
    r = qr.new_rep(q, {"1": 1, "2": 1}, {"a": [[1.0]], "b": [[2.0]]})
    verdict = qr.is_transitive(r)
    assert verdict.transitive and verdict.end_dim == 1


def test_idempotent_found_on_disguised_direct_sum(rng):
    q = qr.kronecker_quiver()
    r1 = qr.new_rep(q, {"1": 1, "2": 1}, {"a": [[1.0]], "b": [[0.0]]})
    r2 = qr.new_rep(q, {"1": 1, "2": 1}, {"a": [[0.0]], "b": [[1.0]]})
    both = qr.direct_sum(r1, r2)
    phi = {v: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for v in ("1", "2")}
    hidden = qr.conjugate(both, phi)
    e = qr.find_nontrivial_idempotent(qr.end_basis(hidden), seed=5)
    assert e is not None
    for v in ("1", "2"):
        m = e.mats[v]
        assert np.linalg.norm(m @ m - m) <= 1e-8


def _jordan_sum(sizes, eigenvalues):
    s = np.zeros((sum(sizes), sum(sizes)), dtype=complex)
    at = 0
    for k, lam in zip(sizes, eigenvalues):
        s[at : at + k, at : at + k] = qr.jordan_block(k, lam)
        at += k
    return s


L1, L2 = 0.3 + 0.2j, 1.5 - 0.4j


def test_one_draw_splits_a_sum_of_jordan_blocks(monkeypatch):
    # rounding splits each eigenvalue of a Jordan block into points a few 1e-6
    # apart; the quotient's eigenvalues are well conditioned and keep them together
    monkeypatch.setattr(hom_module, "IDEM_TRIALS", 1)
    for sizes in ((2, 3), (3, 3)):
        eb = qr.end_basis(qr.build_extended_dynkin("d4tilde", _jordan_sum(sizes, (L1, L2))))
        assert eb.dim == sum(sizes)
        assert all(qr.find_nontrivial_idempotent(eb, seed=seed) is not None for seed in range(10))


@pytest.mark.parametrize("family", ["d4tilde", "d6tilde", "e6tilde"])
@pytest.mark.parametrize("sizes, eigenvalues, semisimple", [
    ((3, 3), (L1, L2), 2), ((3, 3), (L1, L1), 4), ((2, 3), (L1, L2), 2), ((4, 4), (0.3, 1.5), 2)])
def test_trace_form_certifies_a_sum_of_jordan_blocks(monkeypatch, family, sizes, eigenvalues, semisimple):
    # End / rad End is C + C for distinct eigenvalues and M_2(C) for equal ones
    r = qr.build_extended_dynkin(family, _jordan_sum(sizes, eigenvalues))
    eb = qr.end_basis(r)
    monkeypatch.setattr(hom_module, "end_basis", lambda _: eb)  # one End solve; the draws vary
    for seed in range(3):
        verdict = qr.is_indecomposable(r, seed=seed)
        assert (verdict.kind, verdict.semisimple_dim) == ("decomposable", semisimple)
        e = verdict.witness
        assert e is not None
        assert rep.idempotent_fault(e) is None


def _count_draws(monkeypatch) -> list:
    """Wrap the search's random draws; the returned list grows by one per draw."""
    draws, real = [], hom_module._random_element
    monkeypatch.setattr(hom_module, "_random_element", lambda hb, rng: draws.append(1) or real(hb, rng))
    return draws


def test_the_idempotent_search_moves_past_each_failed_draw(monkeypatch):
    # draw 1: eigvals fails; 2: one cluster; 3: the projection fails; 4: the
    # projection is the identity, which idempotent_fault rejects as e = 1; 5: a witness
    eb = qr.end_basis(qr.build_extended_dynkin("d4tilde", np.diag([1.0, 2.0])))
    draws = _count_draws(monkeypatch)
    real_eigvals, real_cluster = np.linalg.eigvals, linalg.cluster_eigenvalues
    real_projection, real_fault = linalg.spectral_projection, hom_module.idempotent_fault
    faults = []

    def eigvals(a):
        if len(draws) == 1:
            raise np.linalg.LinAlgError("eigenvalues did not converge")
        return real_eigvals(a)

    def projection(a, centroids, chosen):
        if len(draws) == 3:
            raise np.linalg.LinAlgError("no projection")
        return np.eye(len(a)) if len(draws) == 4 else real_projection(a, centroids, chosen)

    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    monkeypatch.setattr(linalg, "cluster_eigenvalues",
                        lambda eigs: [list(range(len(eigs)))] if len(draws) == 2 else real_cluster(eigs))
    monkeypatch.setattr(linalg, "spectral_projection", projection)
    monkeypatch.setattr(hom_module, "idempotent_fault", lambda e: faults.append(real_fault(e)) or faults[-1])
    e = qr.find_nontrivial_idempotent(eb, seed=0)
    assert len(draws) == 5 and e is not None and rep.idempotent_fault(e) is None
    assert faults == ["e = 1 splits nothing; a nontrivial idempotent is required", None]


def test_the_idempotent_search_gives_none_after_its_trials(monkeypatch):
    eb = qr.end_basis(qr.build_extended_dynkin("d4tilde", np.diag([1.0, 2.0])))
    draws = _count_draws(monkeypatch)
    monkeypatch.setattr(linalg, "cluster_eigenvalues", lambda eigs: [list(range(len(eigs)))])
    assert qr.find_nontrivial_idempotent(eb, seed=0) is None
    assert len(draws) == hom_module.IDEM_TRIALS


@pytest.mark.parametrize("k", [2, 3, 5])
def test_a_conjugated_jordan_block_stays_indecomposable(rng, k):
    loop = qr.new_rep(qr.jordan_quiver(), {"1": k}, {"a": qr.jordan_block(k, L1)})
    for r in (loop, qr.build_extended_dynkin("d4tilde", qr.jordan_block(k, L2))):
        phi = {v: rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for v, d in r.dims.items()}
        verdict = qr.is_indecomposable(qr.conjugate(r, phi))
        assert (verdict.kind, verdict.end_dim, verdict.semisimple_dim) == ("indecomposable", k, 1)
        assert verdict.witness is None


def test_a_local_end_needs_no_draw_and_no_spectral_projection(monkeypatch):
    def refuse(*args):
        raise AssertionError("a local End needs no idempotent search")

    monkeypatch.setattr(linalg, "spectral_projection", refuse)
    monkeypatch.setattr(hom_module, "_random_element", refuse)
    r = qr.build_extended_dynkin("d4tilde", qr.jordan_block(4, L1))
    verdict = qr.is_indecomposable(r, seed=3)
    assert (verdict.kind, verdict.end_dim, verdict.semisimple_dim) == ("indecomposable", 4, 1)
    assert qr.find_nontrivial_idempotent(qr.end_basis(r)) is None


def test_no_idempotent_on_jordan_loop():
    q = qr.jordan_quiver()
    v = q.vertices[0]
    r = qr.new_rep(q, {v: 3}, {q.arrows[0].name: qr.jordan_block(3)})
    assert qr.find_nontrivial_idempotent(qr.end_basis(r), seed=0) is None
    assert qr.is_indecomposable(r).kind == "indecomposable"


def test_indecomposability_verdict_kinds():
    q = qr.kronecker_quiver()
    assert qr.is_indecomposable(qr.zero_rep(q)).kind == "zero"
    r = qr.new_rep(q, {"1": 1, "2": 1}, {"a": [[1.0]], "b": [[0.0]]})
    assert qr.is_indecomposable(r).kind == "indecomposable"
    dbl = qr.direct_sum(r, r)
    verdict = qr.is_indecomposable(dbl, seed=1)
    assert verdict.kind == "decomposable"
    assert verdict.witness is not None


def test_find_isomorphism_between_conjugates(rng):
    q = qr.kronecker_quiver()
    r = random_rep(q, {"1": 2, "2": 3}, rng)
    phi = {
        "1": rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
        "2": rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
    }
    other = qr.conjugate(r, phi)
    iso = qr.find_isomorphism(r, other, seed=2)
    assert iso is not None
    assert qr.is_invertible_hom(iso)
    assert iso.residual <= 1e-9


def test_find_isomorphism_rejects_different_dim_vectors(rng):
    q = qr.kronecker_quiver()
    r1 = random_rep(q, {"1": 2, "2": 2}, rng)
    r2 = random_rep(q, {"1": 2, "2": 1}, rng)
    assert qr.find_isomorphism(r1, r2) is None


def test_find_isomorphism_distinguishes_nonisomorphic_pairs(monkeypatch):
    q = qr.kronecker_quiver()
    r1 = qr.new_rep(q, {"1": 1, "2": 1}, {"a": [[1.0]], "b": [[0.0]]})
    r2 = qr.new_rep(q, {"1": 1, "2": 1}, {"a": [[0.0]], "b": [[1.0]]})
    assert qr.find_isomorphism(r1, r2) is None
    # one dimension vector on two quivers
    assert qr.find_isomorphism(r1, qr.new_rep(qr.an_quiver(2), {"1": 1, "2": 1}, {"e1": [[1.0]]})) is None
    # Hom(C -1-> C, C -0-> C) is spanned by T = (1, 0): every draw fails
    a2 = qr.an_quiver(2)
    r1 = qr.new_rep(a2, {"1": 1, "2": 1}, {"e1": [[1.0]]})
    r2 = qr.new_rep(a2, {"1": 1, "2": 1}, {"e1": [[0.0]]})
    assert qr.hom_basis(r1, r2).dim == 1
    draws = _count_draws(monkeypatch)
    assert qr.find_isomorphism(r1, r2) is None
    assert len(draws) == hom_module.ISO_TRIALS


def test_zero_reps_are_isomorphic():
    q = qr.kronecker_quiver()
    iso = qr.find_isomorphism(qr.zero_rep(q), qr.zero_rep(q))
    assert iso is not None and iso.residual == 0.0


_K = qr.kronecker_quiver()


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: qr.hom_basis(qr.zero_rep(_K), qr.zero_rep(qr.an_quiver(2))), "same quiver"),
        (lambda: qr.find_nontrivial_idempotent(qr.hom_basis(qr.zero_rep(_K), qr.new_rep(_K, {"1": 1}))),
         "endomorphism basis"),
    ],
    ids=["hom-across-quivers", "idempotent-search-between-different-dims"],
)
def test_hom_rejects_what_it_cannot_solve(call, match):
    with pytest.raises(ValueError, match=match):
        call()
