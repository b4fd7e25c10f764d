"""Intertwiner spaces: basis computation, transitivity, idempotents, isomorphisms.

The space Hom(r1, r2) = { (T_v) : T_dst f_a = g_a T_src for every arrow } is
computed as the nullspace of one stacked linear system over the concatenated
blocks (vertices in quiver order, matrices flattened row-major).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .config import IDEM_TOL, IDEM_TRIALS, ISO_TRIALS
from .errors import PreconditionError
from .rep import Hom, Rep, hom_compose, hom_lincomb, idempotent_defects, is_invertible_hom, make_hom


@dataclass
class HomBasis:
    """Orthonormal basis of an intertwiner space (orthonormal once flattened)."""

    source: Rep
    target: Rep
    basis: list[Hom]
    tol_used: float

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def max_residual(self) -> float:
        return max((h.residual for h in self.basis), default=0.0)


def _block_layout(source: Rep, target: Rep):
    """Offsets of each vertex block inside the concatenated unknown vector."""
    offsets, sizes = {}, {}
    pos = 0
    for v in source.quiver.vertices:
        size = target.dims[v] * source.dims[v]
        offsets[v], sizes[v] = pos, size
        pos += size
    return offsets, sizes, pos


def hom_basis(r1: Rep, r2: Rep) -> HomBasis:
    """Orthonormal basis of Hom(r1, r2)."""
    if r1.quiver != r2.quiver:
        raise ValueError("hom spaces need representations of the same quiver")
    q = r1.quiver
    offsets, sizes, total = _block_layout(r1, r2)
    if total == 0:
        return HomBasis(r1, r2, [], 0.0)

    blocks = []
    for a in q.arrows:
        f = r1.mats[a.name]  # dim1(dst) x dim1(src)
        g = r2.mats[a.name]  # dim2(dst) x dim2(src)
        rows = r2.dims[a.dst] * r1.dims[a.src]
        if rows == 0:
            continue
        block = np.zeros((rows, total), dtype=complex)
        if sizes[a.dst]:
            # T_dst @ f contributes (I ⊗ f^T) on vec(T_dst)
            block[:, offsets[a.dst] : offsets[a.dst] + sizes[a.dst]] += linalg.right_mult_matrix(
                f, r2.dims[a.dst]
            )
        if sizes[a.src]:
            # g @ T_src contributes (g ⊗ I) on vec(T_src)
            block[:, offsets[a.src] : offsets[a.src] + sizes[a.src]] -= linalg.left_mult_matrix(
                g, r1.dims[a.src]
            )
        blocks.append(block)

    system = np.vstack(blocks) if blocks else np.zeros((0, total), dtype=complex)
    s, vectors = linalg.nullspace_with_values(system)
    tol_used = linalg.svd_cutoff(s, system.shape)

    basis = []
    for j in range(vectors.shape[1]):
        vec = vectors[:, j]
        mats = {
            v: vec[offsets[v] : offsets[v] + sizes[v]].reshape(r2.dims[v], r1.dims[v])
            for v in q.vertices
        }
        basis.append(make_hom(r1, r2, mats))
    return HomBasis(r1, r2, basis, tol_used)


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


def _random_end_element(eb: HomBasis, rng: np.random.Generator) -> Hom:
    c = rng.standard_normal(eb.dim) + 1j * rng.standard_normal(eb.dim)
    return hom_lincomb(c, eb.basis)


def find_nontrivial_idempotent(eb: HomBasis, seed: int = 0) -> Hom | None:
    """Search End for an idempotent other than 0 and 1.

    Draws random elements T of the algebra, clusters the joint spectrum of the
    vertex blocks, and takes the spectral projection of each block onto one
    cluster.  The projection is a polynomial in T, hence lands in End exactly;
    residual checks guard the numerics.  Returns None when every trial fails
    (in particular when dim End <= 1).
    """
    if eb.source is not eb.target and eb.source.dims != eb.target.dims:
        raise ValueError("idempotent search needs an endomorphism basis")
    if eb.dim <= 1:
        return None
    rng = np.random.default_rng(seed)
    r = eb.source
    live = [v for v in r.quiver.vertices if r.dims[v] > 0]

    for _ in range(IDEM_TRIALS):
        t = _random_end_element(eb, rng)
        try:
            vertex_eigs = {v: np.linalg.eigvals(t.mats[v]) for v in live}
        except np.linalg.LinAlgError:
            continue
        all_eigs = np.concatenate([vertex_eigs[v] for v in live])
        clusters = linalg.cluster_eigenvalues(all_eigs)
        if len(clusters) < 2:
            continue
        centroids = np.array([np.mean(all_eigs[idx]) for idx in clusters])

        def select(z, centroids=centroids):
            return int(np.argmin(np.abs(centroids - z))) == 0

        try:
            proj = {
                v: linalg.spectral_projection(t.mats[v], select) if r.dims[v] else np.zeros((0, 0), dtype=complex)
                for v in r.quiver.vertices
            }
        except (np.linalg.LinAlgError, ValueError):
            continue
        p = make_hom(r, r, proj)
        sq_defect, id_defect = idempotent_defects(p)
        if sq_defect > IDEM_TOL or p.residual > IDEM_TOL:
            continue
        if p.norm() <= IDEM_TOL or id_defect <= IDEM_TOL:
            continue
        return p
    return None


@dataclass
class IndecomposabilityVerdict:
    kind: str  # "zero" | "indecomposable" | "decomposable"
    end_dim: int
    witness: Hom | None = None
    trials_used: int = 0

    @property
    def indecomposable(self) -> bool:
        return self.kind == "indecomposable"


def is_indecomposable(r: Rep, seed: int = 0) -> IndecomposabilityVerdict:
    """Decide indecomposability: End contains no idempotent besides 0 and 1.

    dim End = 1 is conclusive; otherwise the verdict rests on the randomized
    idempotent search, whose trial count is recorded.
    """
    if r.is_zero:
        return IndecomposabilityVerdict("zero", 0)
    eb = end_basis(r)
    if eb.dim == 1:
        return IndecomposabilityVerdict("indecomposable", 1)
    witness = find_nontrivial_idempotent(eb, seed=seed)
    if witness is not None:
        return IndecomposabilityVerdict("decomposable", eb.dim, witness, IDEM_TRIALS)
    return IndecomposabilityVerdict("indecomposable", eb.dim, None, IDEM_TRIALS)


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
        c = rng.standard_normal(hb.dim) + 1j * rng.standard_normal(hb.dim)
        t = hom_lincomb(c, hb.basis)
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
    "hom_compose",
    "hom_lincomb",
    "make_hom",
]
