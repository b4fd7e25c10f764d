"""Intertwiner spaces: basis computation, transitivity, idempotents, isomorphisms.

The space Hom(r1, r2) = { (T_v) : T_dst f_a = g_a T_src for every arrow } is
computed as the nullspace of one stacked linear system over the concatenated
blocks (vertices in quiver order, matrices flattened row-major), after the
blocks that an isometric arrow or a vertex's arms determine are substituted
(see hom_basis).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import linalg
from .config import IDEM_TOL, IDEM_TRIALS, ISO_TRIALS, SVD_FACTOR
from .errors import PreconditionError
from .rep import Hom, Rep, hom_residual, idempotent_defects, is_invertible_hom, make_hom


@dataclass
class HomBasis:
    """Orthonormal basis of an intertwiner space (orthonormal once flattened).

    `blocks` maps each vertex v to one (dim, target dim v, source dim v) array
    stacking the basis elements' blocks at v; the Homs in `basis` hold views
    into it.  `system_shape` and `tol_used` describe the system that was
    factored: the one left after eliminating determined blocks (see `hom_basis`).
    """

    source: Rep
    target: Rep
    basis: list[Hom]
    blocks: dict[str, np.ndarray]
    tol_used: float
    system_shape: tuple[int, int] = (0, 0)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def max_residual(self) -> float:
        """Largest intertwining residual of the basis, from one call on the stacks."""
        return hom_residual(self.source, self.target, self.blocks)


def _block_layout(source: Rep, target: Rep):
    """Offsets of each vertex block inside the concatenated unknown vector."""
    offsets, sizes = {}, {}
    pos = 0
    for v in source.quiver.vertices:
        size = target.dims[v] * source.dims[v]
        offsets[v], sizes[v] = pos, size
        pos += size
    return offsets, sizes, pos


def _is_isometry(g) -> bool:
    """|g*g - I| <= max(g.shape) * SVD_FACTOR, for g with at least one column."""
    rows, cols = g.shape
    tol = max(rows, cols) * SVD_FACTOR
    if rows < cols:
        return False
    # |g*g - I| is at least |(g*g)_00 - 1|, and that rules out most matrices cheaply
    if abs(np.vdot(g[:, 0], g[:, 0]) - 1) > tol:
        return False
    return bool(np.linalg.norm(g.conj().T @ g - np.eye(cols)) <= tol)


def _eliminated_arrows(q, source: Rep, target: Rep) -> dict:
    """Vertex u -> the arrow a: u -> v that determines T_u = g* T_v f.

    u qualifies when its block is not empty, a is its only outgoing arrow, a
    is not a loop, the target's matrix g for a is an isometry, and following
    the arrows already chosen from v never comes back to u (so every oriented
    cycle of unitary arrows keeps one unknown block).
    """
    outgoing = {v: [] for v in q.vertices}
    for a in q.arrows:
        outgoing[a.src].append(a)
    chosen = {}
    for u in q.vertices:
        if not (source.dims[u] and target.dims[u]) or len(outgoing[u]) != 1 or outgoing[u][0].dst == u:
            continue
        a = outgoing[u][0]
        if not _is_isometry(target.mats[a.name]):
            continue
        w = a.dst
        while w in chosen and w != u:
            w = chosen[w].dst
        if w != u:
            chosen[u] = a
    return chosen


def _determined_by_arms(q, source: Rep, chosen: dict) -> dict:
    """Vertex v -> [(a_i, (F^-1)_i)]: the arms a_i: u_i -> v with T_v = sum_i g_i T_{u_i} (F^-1)_i.

    v qualifies when `chosen` does not eliminate it and its source block is not
    empty.  Its incoming non-loop arrows not from vertices determined here are
    taken in quiver order while their columns fit; they must fill dim v with an
    invertible F = [f_1 ... f_k].  Their elimination through v leaves `chosen`.
    """
    determined = {}
    for v in q.vertices:
        width = source.dims[v]
        if v in chosen or not width:
            continue
        arms, taken = [], 0  # (arrow, its rows of F^-1)
        for a in q.arrows:
            cols = source.dims[a.src]
            if a.dst == v and a.src != v and a.src not in determined and taken + cols <= width:
                arms.append((a, slice(taken, taken + cols)))
                taken += cols
        if taken < width:
            continue
        f = np.hstack([source.mats[a.name] for a, _ in arms])
        if not linalg.is_invertible(f):
            continue
        finv = np.linalg.inv(f)
        determined[v] = [(a, finv[rows]) for a, rows in arms]
        for a, _ in arms:
            chosen.pop(a.src, None)
    return determined


def hom_basis(r1: Rep, r2: Rep) -> HomBasis:
    """Orthonormal basis of Hom(r1, r2).

    A vertex u whose only outgoing arrow a: u -> v carries an isometry g in r2
    (see `_eliminated_arrows`) is not solved for: T_u = g* T_v f, and arrow a
    keeps only the rows K* T_v f = 0, K an orthonormal basis of range(g)^perp.
    Nor is a vertex v determined by its arms (see `_determined_by_arms`):
    T_v = sum_i g_i T_{u_i} (F^-1)_i, and the arms keep no rows.  Each block is
    a short sum of terms L T_root R over the remaining (root) blocks, which are
    solved as one stacked nullspace; the solution is lifted to every vertex and
    re-orthonormalized.  With nothing to eliminate this is the plain Kronecker
    system over all blocks.
    """
    if r1.quiver != r2.quiver:
        raise ValueError("hom spaces need representations of the same quiver")
    q = r1.quiver
    offsets, sizes, total = _block_layout(r1, r2)
    chosen = _eliminated_arrows(q, r1, r2)
    determined = _determined_by_arms(q, r1, chosen)
    arms = {a.name for terms in determined.values() for a, _ in terms}
    # T_v = sum of left @ T_root @ right over the terms of v
    subst = {}

    def substitution(v):
        if v not in subst:
            if v in determined:
                subst[v] = [(root, r2.mats[a.name] @ left, right @ finv)
                            for a, finv in determined[v] for root, left, right in substitution(a.src)]
            elif v in chosen:
                a = chosen[v]
                subst[v] = [(root, r2.mats[a.name].conj().T @ left, right @ r1.mats[a.name])
                            for root, left, right in substitution(a.dst)]
            else:
                subst[v] = [(v, np.eye(r2.dims[v]), np.eye(r1.dims[v]))]
        return subst[v]

    cols = {}  # root blocks keep their quiver order and row-major layout
    pos = 0
    for v in q.vertices:
        if v not in chosen and v not in determined:
            cols[v] = slice(pos, pos + sizes[v])
            pos += sizes[v]

    def add_term(block, v, left, right):
        # block += matrix of T_root -> left @ T_v @ right, T_v substituted (row-major vec)
        for root, lv, rv in substitution(v):
            block[:, cols[root]] += np.kron(left @ lv, (rv @ right).T)

    blocks = []
    for a in q.arrows:
        if a.name in arms:
            continue
        f = r1.mats[a.name]  # dim1(dst) x dim1(src)
        g = r2.mats[a.name]  # dim2(dst) x dim2(src)
        if chosen.get(a.src) is a:
            # K* T_dst f = 0
            k_adj = linalg.orth_complement(g).conj().T
            block = np.zeros((k_adj.shape[0] * r1.dims[a.src], pos), dtype=complex)
            add_term(block, a.dst, k_adj, f)
        else:
            # T_dst f - g T_src = 0
            block = np.zeros((r2.dims[a.dst] * r1.dims[a.src], pos), dtype=complex)
            add_term(block, a.dst, np.eye(r2.dims[a.dst]), f)
            add_term(block, a.src, -g, np.eye(r1.dims[a.src]))
        blocks.append(block)

    system = np.vstack(blocks) if blocks else np.zeros((0, pos), dtype=complex)
    # An eliminated isometry g is a block of norm 1 in the full system, and F F^-1
    # = 1, so the cutoff is relative to at least 1: substitution may cancel a row
    # down to roundoff (around an oriented cycle of unitaries, for instance).
    scale = 1.0 if chosen or determined else 0.0
    s, vectors = linalg.nullspace_with_values(system, scale)
    tol_used = linalg.svd_cutoff(s, system.shape, scale)
    m = vectors.shape[1]

    if scale and m:
        roots = {v: vectors[c].T.reshape(m, r2.dims[v], r1.dims[v]) for v, c in cols.items()}
        lifted = np.empty((total, m), dtype=complex)
        for v in q.vertices:
            x = sum(left @ roots[root] @ right for root, left, right in substitution(v))
            lifted[offsets[v] : offsets[v] + sizes[v]] = x.reshape(m, sizes[v]).T
        vectors = linalg.phase_normalize(np.linalg.qr(lifted)[0])

    blocks = {
        v: vectors[offsets[v] : offsets[v] + sizes[v]].T.reshape(m, r2.dims[v], r1.dims[v])
        for v in q.vertices
    }
    basis = [make_hom(r1, r2, {v: b[j] for v, b in blocks.items()}) for j in range(m)]
    return HomBasis(r1, r2, basis, blocks, tol_used, system.shape)


def end_basis(r: Rep) -> HomBasis:
    return hom_basis(r, r)


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
# idempotent search


def _random_element(hb: HomBasis, rng: np.random.Generator) -> Hom:
    """sum_j c_j B_j for complex Gaussian coefficients c drawn from `rng`."""
    c = rng.standard_normal(hb.dim) + 1j * rng.standard_normal(hb.dim)
    return make_hom(hb.source, hb.target, {v: np.tensordot(c, b, axes=1) for v, b in hb.blocks.items()})


def find_nontrivial_idempotent(eb: HomBasis, seed: int = 0) -> Hom | None:
    """Search End for an idempotent other than 0 and 1.

    Draws random elements T of the algebra, clusters the joint spectrum of the
    vertex blocks, and takes the spectral projection of each block onto one
    cluster.  The projection is a polynomial in T, hence lands in End exactly;
    residual checks guard the numerics.  Of e and 1 - e it returns the one
    whose rank vector (round(tr e_v) in quiver vertex order) is smaller
    lexicographically, e on a tie.  Returns None when every trial fails (in
    particular when dim End <= 1).
    """
    if eb.source is not eb.target and eb.source.dims != eb.target.dims:
        raise ValueError("idempotent search needs an endomorphism basis")
    if eb.dim <= 1:
        return None
    rng = np.random.default_rng(seed)
    r = eb.source

    for _ in range(IDEM_TRIALS):
        t = _random_element(eb, rng)
        try:
            all_eigs = np.concatenate([np.linalg.eigvals(t.mats[v]) for v in r.quiver.vertices])
        except np.linalg.LinAlgError:
            continue
        clusters = linalg.cluster_eigenvalues(all_eigs)
        if len(clusters) < 2:
            continue
        centroids = np.array([np.mean(all_eigs[idx]) for idx in clusters])

        def select(z, centroids=centroids):
            return int(np.argmin(np.abs(centroids - z))) == 0

        try:
            proj = {v: linalg.spectral_projection(t.mats[v], select) for v in r.quiver.vertices}
        except (np.linalg.LinAlgError, ValueError):
            continue
        p = make_hom(r, r, proj)
        sq_defect, id_defect = idempotent_defects(p)
        if sq_defect > IDEM_TOL or p.residual > IDEM_TOL:
            continue
        if p.norm() <= IDEM_TOL or id_defect <= IDEM_TOL:
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
    max_residual: float = 0.0  # of the End basis the verdict was read from

    @property
    def indecomposable(self) -> bool:
        return self.kind == "indecomposable"


def is_indecomposable(r: Rep, seed: int = 0) -> IndecomposabilityVerdict:
    """Decide indecomposability: End contains no idempotent besides 0 and 1.

    dim End = 1 is conclusive; otherwise the verdict rests on the randomized
    idempotent search.
    """
    if r.is_zero:
        return IndecomposabilityVerdict("zero", 0)
    eb = end_basis(r)
    if eb.dim == 1:
        return IndecomposabilityVerdict("indecomposable", 1, max_residual=eb.max_residual)
    witness = find_nontrivial_idempotent(eb, seed=seed)
    kind = "indecomposable" if witness is None else "decomposable"
    return IndecomposabilityVerdict(kind, eb.dim, witness, eb.max_residual)


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


__all__ = [
    "HomBasis",
    "hom_basis",
    "end_basis",
    "TransitivityVerdict",
    "is_transitive",
    "find_nontrivial_idempotent",
    "IndecomposabilityVerdict",
    "is_indecomposable",
    "find_isomorphism",
    "make_hom",
]
