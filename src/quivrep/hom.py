"""Intertwiner spaces: basis computation, transitivity, idempotents, isomorphisms.

The space Hom(r1, r2) = { (T_v) : T_dst f_a = g_a T_src for every arrow } is
the nullspace of one stacked linear system, one row block per arrow.  From
SPLIT_MIN_COLS columns on, one block-pivot elimination (see `hom_basis`) solves
first for the blocks that others determine; a smaller system is factored whole.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from . import linalg
from .config import IDEM_TRIALS, ISO_TRIALS, PIVOT_TOL
from .errors import PreconditionError
from .rep import Hom, Rep, hom_residual, idempotent_fault, is_invertible_hom, make_hom


class Pivot(NamedTuple):
    """One elimination step: the block at `vertex` solved from the row blocks of `arrows`."""

    vertex: str
    arrows: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class HomBasis:
    """Orthonormal basis of an intertwiner space (orthonormal once flattened).

    `blocks` maps each vertex v to one read-only (dim, target dim v, source
    dim v) array stacking the basis elements' blocks at v; the Homs in `basis`
    hold views into it.  The elimination plan is `pivots`, in the order they
    were taken, and `system_shape`, the system actually factored (its columns
    are the unknowns left); `tol_used` is that factorization's cutoff.
    """

    source: Rep
    target: Rep
    basis: list[Hom]
    blocks: dict[str, np.ndarray]
    tol_used: float
    system_shape: tuple[int, int] = (0, 0)
    pivots: tuple[Pivot, ...] = ()

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def max_residual(self) -> float:
        """Largest intertwining residual of the basis, from one call on the stacks."""
        return hom_residual(self.source, self.target, self.blocks)

    @cached_property
    def radical_complement(self) -> np.ndarray:
        """For an End basis: orthonormal coefficient columns spanning the complement of the radical.

        In characteristic 0 the radical of an algebra of matrices is the kernel
        of its trace form G_ij = sum_v tr(B_i B_j) (Dickson's criterion; Ronyai,
        J. Symb. Comput. 9, 1990), so the number of columns, rank G, is the
        dimension of the semisimple quotient End / rad End.  Cached, so the
        verdict and the idempotent search factor G once.
        """
        g = sum((np.einsum("iab,jba->ij", b, b) for b in self.blocks.values()), np.zeros((self.dim, self.dim)))
        _, s, vh = np.linalg.svd(g)
        return vh[: int(np.sum(s > linalg.svd_cutoff(s, g.shape)))].conj().T


class _Candidate(NamedTuple):
    """Row block `index`, which holds a root once as L T R, with L = u diag(s) vh."""

    index: int
    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray
    r: np.ndarray


def _can_fill(widths, total: int) -> bool:
    """Whether some of `widths` sum to exactly `total`."""
    reachable = 1  # bit k is set when some of the widths seen so far sum to k
    for w in widths:
        reachable |= reachable << w
    return bool(reachable >> total & 1)


def _pivot_blocks(width: int, blocks: list, ref: float, svd) -> list[_Candidate] | None:
    """Those of `blocks` that determine a root with `width` source columns, in the order taken, or None.

    Each block (index, L, R) holds the root once, as L T R.  With the blocks
    taken stacked in F = [R_j], T -> (L_j T R_j)_j has singular values between
    lo = min sigma_min(L_j) * sigma_min(F) and hi = max sigma_max(L_j) *
    sigma_max(F).  Block column pivoting takes, step by step, the block of
    largest lo among those that complete `width`, else among those that leave a
    width the rest can fill exactly; near ties keep the earlier block.  The square F qualifies when lo > PIVOT_TOL * max(hi, ref), `ref`
    being the scale of the system.
    """
    if sum(r.shape[1] for _, _, r in blocks) < width:
        return None
    cands = [_Candidate(i, *svd(l), r) for i, l, r in blocks]
    rest = [c for c in cands if c.s[-1] > PIVOT_TOL * c.s[0]]  # L of full column rank
    taken, left = [], width
    while left:
        best = None
        for c in [c for c in rest if c.r.shape[1] == left] or rest:
            k = c.r.shape[1]
            if k > left or not _can_fill((d.r.shape[1] for d in rest if d is not c), left - k):
                continue
            if taken:
                f_values = np.linalg.svd(np.hstack([t.r for t in taken] + [c.r]), compute_uv=False)
            else:
                f_values = svd(c.r)[1]
            lo = f_values[-1] * min(t.s[-1] for t in taken + [c])
            if best is None or lo > best_lo * (1 + 1e-8):
                best, best_lo, best_f_values = c, lo, f_values
        if best is None:
            return None
        taken.append(best)
        rest.remove(best)
        left -= best.r.shape[1]
    hi = max(t.s[0] for t in taken) * best_f_values[0]
    return taken if best_lo > PIVOT_TOL * max(hi, ref) else None


def _eliminate(rows: list, roots: list[str], d1, d2, ref: float, eye: dict):
    """Take pivots until none qualifies: (rows left, roots left, solved, pivots).

    `solved` lists (u, terms of T_u over the roots left when u was solved for),
    in the order the pivots were taken.  `eye` holds the identity matrices the
    terms share; each term matrix is factored at most once.
    """
    # id(m) -> (m, SVD of m), holding m so that its id stays unique; identities are known
    svds = {id(i): (i, (i, np.ones(len(i)), i)) for i in eye.values()}

    def svd(m):
        if id(m) not in svds:
            svds[id(m)] = (m, np.linalg.svd(m))
        return svds[id(m)][1]
    roots, solved, pivots = list(roots), [], []
    while True:
        occurs = Counter(v for _, terms in rows for v in {t[0] for t in terms})
        for u in sorted(roots, key=lambda v: (-d2[v] * d1[v], occurs[v])):
            blocks = []
            for i, (_, terms) in enumerate(rows):
                hits = [t for t in terms if t[0] == u]
                if len(hits) == 1 and hits[0][1].shape[0] >= d2[u] and hits[0][2].shape[1] <= d1[u]:
                    blocks.append((i, hits[0][1], hits[0][2]))
            taken = _pivot_blocks(d1[u], blocks, ref, svd)
            if taken:
                break
        else:
            return rows, roots, solved, pivots
        one = len(taken) == 1 and taken[0].r is eye[d1[u]]
        finv = eye[d1[u]] if one else np.linalg.inv(np.hstack([c.r for c in taken]))
        expr, kept, col = [], {}, 0
        for c in taken:
            rest = [t for t in rows[c.index][1] if t[0] != u]
            rank = len(c.s)
            pinv = (c.vh.conj().T / c.s) @ c.u[:, :rank].conj().T
            f_block = finv[col : col + c.r.shape[1]]
            expr += [(w, -(pinv @ lw), rw @ f_block) for w, lw, rw in rest]
            col += c.r.shape[1]
            kh = c.u[:, rank:].conj().T  # rows orthogonal to range(L) stay
            kept[c.index] = [(w, kh @ lw, rw) for w, lw, rw in rest] if len(kh) else []
        pivots.append(Pivot(u, tuple(rows[c.index][0] for c in taken)))
        new_rows = []
        for i, (name, terms) in enumerate(rows):
            if i in kept:
                new_terms = kept[i]
            else:
                new_terms = [t for t in terms if t[0] != u]
                for v, l, r in terms:
                    if v == u:
                        new_terms += [(w, l @ lw, rw @ r) for w, lw, rw in expr]
            if new_terms:
                new_rows.append((name, new_terms))
        rows = new_rows
        solved.append((u, expr))
        roots.remove(u)


def _assemble(rows: list, roots: list[str], sizes) -> tuple[np.ndarray, dict[str, int]]:
    """The Kronecker system of `rows` over `roots` (in that order), and each root's first column."""
    cols = dict(zip(roots, accumulate((sizes[v] for v in roots), initial=0)))
    system = np.zeros((sum(t[0][1].shape[0] * t[0][2].shape[1] for _, t in rows), sum(sizes[v] for v in roots)),
                      dtype=complex)
    row = 0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is left to the factorization to report
        for _, terms in rows:
            p = terms[0][1].shape[0] * terms[0][2].shape[1]
            for v, l, r in terms:  # vec(L T R) = kron(L, R^T) vec(T), row-major
                system[row : row + p, cols[v] : cols[v] + sizes[v]] += (
                    l[:, None, :, None] * r.T[None, :, None, :]).reshape(p, sizes[v])
            row += p
    return system, cols


def hom_basis(r1: Rep, r2: Rep) -> HomBasis:
    """Orthonormal basis of Hom(r1, r2), by block-pivot elimination from SPLIT_MIN_COLS columns on.

    Below `linalg.SPLIT_MIN_COLS` columns the system is factored whole, and
    planned only if that SVD overflows (the pivots may leave out what does).
    Otherwise arrow a: u -> v gives the row block T_v f_a - g_a T_u = 0, kept as
    terms L T_root R over the blocks still unknown (the roots).  A pivot is a
    root u and row blocks j that hold u once, as L_j T_u R_j, with L_j of full
    column rank and F = [R_j] square (see `_pivot_blocks`).  With L_j = U_j S_j
    V_j* and U_j = [P_j K_j], the rows P_j* give T_u = -sum_j L_j^+ (rest of
    block j) (F^-1)_j, substituted into the other row blocks; the rows K_j* of
    block j stay.  An isometric or injective g (L = g, R = 1) and arms that fill
    their head (L = 1, R = [f_1 ... f_k]) are such pivots.  Roots are tried
    largest block first, then fewest row blocks, then in quiver order, until
    none qualifies.  What is left is factored by `linalg.nullspace_with_values`,
    one block of its nonzero pattern at a time, with one cutoff relative to the
    full system's shape and, after a pivot, to at least its largest entry; the
    nullspace is lifted back through the pivots and re-orthonormalized.

    The pivots amplify rounding by up to 1/PIVOT_TOL, and a nullspace moves by
    about eps sigma_1 / gap under rounding, gap the smallest singular value
    kept.  So when the reduced system's gap is within 1/PIVOT_TOL of the
    cutoff, the plan is dropped and the full system is factored as it stands.
    """
    if r1.quiver != r2.quiver:
        raise ValueError("hom spaces need representations of the same quiver")
    q = r1.quiver
    d1, d2 = r1.dims, r2.dims
    sizes = {v: d2[v] * d1[v] for v in q.vertices}
    offsets = dict(zip(q.vertices, accumulate(sizes.values(), initial=0)))
    full_shape = (sum(d2[a.dst] * d1[a.src] for a in q.arrows), sum(sizes.values()))
    eye = {n: np.eye(n) for n in {*d1.values(), *d2.values()}}
    rows = []  # (arrow name, terms): sum of L @ T_root @ R over the terms = 0
    ref = 0.0  # the largest entry of the full system: a lower bound on its norm
    for a in q.arrows:
        f, g = r1.mats[a.name], r2.mats[a.name]
        if d2[a.dst] * d1[a.src]:
            if a.src != a.dst:
                ref = max([ref] + [float(np.abs(m).max()) for m in (f, g) if m.size])
            terms = [t for t in ((a.dst, eye[d2[a.dst]], f), (a.src, -g, eye[d1[a.src]])) if sizes[t[0]]]
            if terms:
                rows.append((a.name, terms))

    roots = [v for v in q.vertices if sizes[v]]
    whole = (rows, roots, [], [])
    plans = [whole] if full_shape[1] < linalg.SPLIT_MIN_COLS else [_eliminate(rows, roots, d1, d2, ref, eye), whole]
    for left, unknowns, solved, pivots in plans:
        system, cols = _assemble(left, unknowns, sizes)
        try:
            s, tol_used, vectors = linalg.nullspace_with_values(system, ref if pivots else 0.0, full_shape)
        except OverflowError:
            if len(plans) > 1:  # a planned system, or the whole of a large one
                raise
            plans.append(_eliminate(rows, roots, d1, d2, ref, eye))  # the loop goes on to it
            continue
        kept = s[s > tol_used]  # the gap is the smallest of these
        if not (pivots and len(kept) and kept[-1] * PIVOT_TOL <= tol_used):
            break
    m = vectors.shape[1]

    if pivots and m:
        x = {v: vectors[c : c + sizes[v]].T.reshape(m, d2[v], d1[v]) for v, c in cols.items()}
        for u, expr in reversed(solved):
            x[u] = sum((l @ x[w] @ r for w, l, r in expr), np.zeros((m, d2[u], d1[u]), dtype=complex))
        lifted = np.concatenate([x[v].reshape(m, -1) if v in x else np.zeros((m, 0)) for v in q.vertices], axis=1)
        vectors = linalg.phase_normalize(np.linalg.qr(lifted.T)[0])

    blocks = {v: vectors[offsets[v] : offsets[v] + sizes[v]].T.reshape(m, d2[v], d1[v]) for v in q.vertices}
    for b in blocks.values():  # on each stack: a reshape of the transposed slice may be a copy
        b.flags.writeable = False
    basis = [make_hom(r1, r2, {v: b[j] for v, b in blocks.items()}) for j in range(m)]
    return HomBasis(r1, r2, basis, blocks, tol_used, system.shape, tuple(pivots))


def end_basis(r: Rep) -> HomBasis:
    """Orthonormal basis of End(r), solved once per Rep object.

    `hom_basis` reads only the fixed PIVOT_TOL and SVD_FACTOR, not the scoped
    config.TOL, and r's matrices are read-only, so End depends on r alone.
    The first call keeps the basis on r; later calls (`is_transitive`,
    `is_indecomposable`, `reflection.verify_end_isomorphism`, ...) return that
    same object, with its cached `max_residual` and `radical_complement`.
    r and the basis refer to each other, so the garbage collector frees them
    together.
    """
    if "end" not in r._kept:
        r._kept["end"] = hom_basis(r, r)
    return r._kept["end"]


class TransitivityVerdict(NamedTuple):
    transitive: bool
    end_dim: int


def is_transitive(r: Rep) -> TransitivityVerdict:
    """A representation is transitive when its endomorphisms are the scalars."""
    if r.is_zero:
        raise PreconditionError("the zero representation has End = 0; transitivity is undefined for it")
    dim = end_basis(r).dim
    return TransitivityVerdict(dim == 1, dim)


# ---------------------------------------------------------------------------
# indecomposability: the trace form of End and the idempotent search


def _random_element(hb: HomBasis, rng: np.random.Generator) -> Hom:
    """sum_j c_j B_j for complex Gaussian coefficients c drawn from `rng`."""
    c = rng.standard_normal(hb.dim) + 1j * rng.standard_normal(hb.dim)
    return make_hom(hb.source, hb.target, {v: np.tensordot(c, b, axes=1) for v, b in hb.blocks.items()})


def find_nontrivial_idempotent(eb: HomBasis, seed: int = 0) -> Hom | None:
    """An idempotent of End other than 0 and 1, or None.

    None without a draw when the trace form has rank <= 1: End is then local
    and has no such idempotent.  Otherwise each of up to IDEM_TRIALS random
    elements T = sum_j c_j B_j is read on the semisimple quotient: its left
    multiplication, compressed to the complement of the radical, has well
    conditioned eigenvalues, those of T with rounding-split Jordan blocks
    merged.  Their cluster farthest from the others (the first on a tie) is
    chosen, and at each vertex `linalg.spectral_projection` projects T_v onto
    its eigenvalues nearest that centroid: a sign-function projection, one
    holomorphic function of T at every vertex, hence in End; a draw whose
    projection `rep.idempotent_fault` rejects fails.  Of e and 1 - e it
    returns the one whose rank vector (round(tr e_v) in quiver vertex order)
    is smaller lexicographically, e on a tie.  None after IDEM_TRIALS failed draws.
    """
    if eb.source is not eb.target and eb.source.dims != eb.target.dims:
        raise ValueError("idempotent search needs an endomorphism basis")
    q = eb.radical_complement
    if q.shape[1] <= 1:
        return None
    rng = np.random.default_rng(seed)
    r = eb.source

    for _ in range(IDEM_TRIALS):
        t = _random_element(eb, rng).mats
        # T B_j = sum_l left[l, j] B_l, with left[l, j] = sum_v tr(B_l^* T_v B_j)
        left = sum(b.reshape(eb.dim, -1).conj() @ (t[v] @ b).reshape(eb.dim, -1).T for v, b in eb.blocks.items())
        try:
            eigs = np.linalg.eigvals(q.conj().T @ left @ q)
        except np.linalg.LinAlgError:
            continue
        clusters = linalg.cluster_eigenvalues(eigs)
        if len(clusters) < 2:
            continue
        centroids = np.array([np.mean(eigs[idx]) for idx in clusters])
        separation = [np.abs(np.delete(centroids, k) - z).min() for k, z in enumerate(centroids)]
        chosen = int(np.argmax(separation))
        try:
            proj = {v: linalg.spectral_projection(t[v], centroids, chosen) for v in r.quiver.vertices}
        except (np.linalg.LinAlgError, ValueError):
            continue
        p = make_hom(r, r, proj)
        if idempotent_fault(p):
            continue
        ranks = [round(np.trace(proj[v]).real) for v in r.quiver.vertices]
        if ranks > [r.dims[v] - k for v, k in zip(r.quiver.vertices, ranks)]:
            p = make_hom(r, r, {v: np.eye(r.dims[v]) - e for v, e in proj.items()})
        return p
    return None


@dataclass
class IndecomposabilityVerdict:
    kind: str  # "zero" | "indecomposable" | "decomposable"
    end_dim: int
    witness: Hom | None = None
    semisimple_dim: int = 0  # rank of End's trace form: dim End / rad End

    @property
    def indecomposable(self) -> bool:
        return self.kind == "indecomposable"


def is_indecomposable(r: Rep, seed: int = 0) -> IndecomposabilityVerdict:
    """Decide indecomposability from the trace form of End.

    A nonzero r is indecomposable exactly when End is local (Fitting), that is
    when End / rad End is one-dimensional; the trace form's rank
    (`semisimple_dim`) is that dimension, so both answers are certificates.
    A "decomposable" verdict carries the idempotent witness that
    `find_nontrivial_idempotent` finds, or None when its draws all fail.
    """
    if r.is_zero:
        return IndecomposabilityVerdict("zero", 0)
    eb = end_basis(r)
    semisimple = eb.radical_complement.shape[1]
    if semisimple <= 1:
        return IndecomposabilityVerdict("indecomposable", eb.dim, None, semisimple)
    witness = find_nontrivial_idempotent(eb, seed=seed)
    return IndecomposabilityVerdict("decomposable", eb.dim, witness, semisimple)


def find_isomorphism(r1: Rep, r2: Rep, seed: int = 0) -> Hom | None:
    """Random search for an isomorphism r1 -> r2 inside Hom(r1, r2).

    Returns a Hom whose blocks are all invertible (sigma_min > TOL * sigma_max;
    empty blocks count as invertible), or None.  None is conclusive when the
    dimension vectors differ or Hom is zero; otherwise it is a sampling verdict.
    """
    if r1.quiver != r2.quiver:
        return None
    if r1.dim_vector != r2.dim_vector:
        return None
    hb = hom_basis(r1, r2)
    if hb.dim == 0:
        return None if r1.total_dim else make_hom(r1, r2, {})
    rng = np.random.default_rng(seed)
    for _ in range(ISO_TRIALS):
        t = _random_element(hb, rng)
        if is_invertible_hom(t):
            return t
    return None

