"""Representations of quivers on finite-dimensional complex Hilbert spaces.

A representation assigns dim(v) >= 0 to every vertex and a complex matrix of
shape (dim(dst), dim(src)) to every arrow.  Zero-dimensional vertices are
first-class: their matrices are empty and all operations treat them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import linalg
from .config import IDEM_TOL
from .errors import PreconditionError
from .quiver import Quiver


@dataclass(frozen=True, eq=False)
class Rep:
    """A representation; build it with `new_rep`, which makes the matrices read-only.  Equal only to itself."""

    quiver: Quiver
    dims: dict[str, int]
    mats: dict[str, np.ndarray]
    # made once from the representation alone: End under "end" (by `hom.end_basis`), reflections under
    # (vertex, "sink" | "source") (by `reflection._reflect`), real matrices or None under "real" (by `real_mats`)
    _kept: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def dim_vector(self) -> tuple[int, ...]:
        return tuple(self.dims[v] for v in self.quiver.vertices)

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    @property
    def is_zero(self) -> bool:
        return self.total_dim == 0

    def __reduce__(self):
        # copies and pickles are rebuilt by new_rep: read-only matrices, End not yet
        # solved, no reflection kept
        return new_rep, (self.quiver, self.dims, self.mats)


def new_rep(q: Quiver, dims, mats=None) -> Rep:
    """Validate and build a representation.

    `dims` maps vertices to dimensions (missing vertices get 0).  `mats` maps
    arrow names to matrices; an arrow may be omitted only when either endpoint
    has dimension 0 (the matrix is then the empty one).  Entries must be finite.
    Every matrix is copied and marked read-only, so End, once solved for the
    representation (`hom.end_basis`), stays valid.
    """
    dims = {v: int(d) for v, d in dict(dims).items()}
    for v in dims:
        if v not in q.vertices:
            raise ValueError(f"dims mentions unknown vertex {v!r}")
        if dims[v] < 0:
            raise ValueError(f"dim({v}) = {dims[v]} is negative")
    full_dims = {v: dims.get(v, 0) for v in q.vertices}

    mats = {} if mats is None else dict(mats)
    out: dict[str, np.ndarray] = {}
    known = {a.name for a in q.arrows}
    for name in mats:
        if name not in known:
            raise ValueError(f"mats mentions unknown arrow {name!r}")
    for a in q.arrows:
        rows, cols = full_dims[a.dst], full_dims[a.src]
        if a.name not in mats:
            if rows and cols:
                raise ValueError(f"missing matrix for arrow {a.name!r} ({rows}x{cols})")
            out[a.name] = np.zeros((rows, cols), dtype=complex)
            continue
        m = np.asarray(mats[a.name], dtype=complex)
        if m.size == 0 and rows * cols == 0:
            m = np.zeros((rows, cols), dtype=complex)
        if m.shape != (rows, cols):
            raise ValueError(
                f"arrow {a.name!r}: matrix shape {m.shape} != (dim {a.dst!r}, dim {a.src!r}) = {(rows, cols)}"
            )
        if not np.isfinite(m).all():
            raise ValueError(f"arrow {a.name!r}: matrix has non-finite entries")
        out[a.name] = m
    return Rep(q, full_dims, {name: linalg.read_only(m) for name, m in out.items()})


def real_mats(r: Rep) -> dict[str, np.ndarray] | None:
    """Read-only real views of r's matrices when no entry has an imaginary part, else None; decided once per Rep."""
    if "real" not in r._kept:
        real = not any(np.count_nonzero(m.imag) for m in r.mats.values())
        r._kept["real"] = {name: m.real for name, m in r.mats.items()} if real else None
    return r._kept["real"]


def zero_rep(q: Quiver) -> Rep:
    return new_rep(q, {})


def direct_sum(r1: Rep, r2: Rep) -> Rep:
    """Block-diagonal direct sum of two representations of the same quiver."""
    if r1.quiver != r2.quiver:
        raise ValueError("direct sum needs two representations of the same quiver")
    q = r1.quiver
    dims = {v: r1.dims[v] + r2.dims[v] for v in q.vertices}
    mats = {}
    for a in q.arrows:
        m = np.zeros((dims[a.dst], dims[a.src]), dtype=complex)
        d1r, d1c = r1.dims[a.dst], r1.dims[a.src]
        m[:d1r, :d1c] = r1.mats[a.name]
        m[d1r:, d1c:] = r2.mats[a.name]
        mats[a.name] = m
    return new_rep(q, dims, mats)


def conjugate(r: Rep, phi: dict) -> Rep:
    """Similarity transform: arrow matrices become phi_dst @ f @ phi_src^{-1}.

    `phi` maps vertices to invertible square matrices; missing vertices get the
    identity.  Singular or mis-shaped blocks are rejected.
    """
    phi = {v: np.asarray(m, dtype=complex) for v, m in dict(phi).items()}
    for v, m in phi.items():
        if v not in r.quiver.vertices:
            raise ValueError(f"phi mentions unknown vertex {v!r}")
        d = r.dims[v]
        if m.shape != (d, d):
            raise ValueError(f"phi[{v}] has shape {m.shape}, expected {(d, d)}")
        if not linalg.is_invertible(m):
            raise PreconditionError(f"phi[{v}] is numerically singular; conjugation needs invertible blocks")
    inv = {v: np.linalg.inv(m) for v, m in phi.items()}
    for v in r.quiver.vertices:
        if v not in phi:
            phi[v] = inv[v] = np.eye(r.dims[v], dtype=complex)
    mats = {
        a.name: phi[a.dst] @ r.mats[a.name] @ inv[a.src]
        for a in r.quiver.arrows
    }
    return new_rep(r.quiver, dict(r.dims), mats)


# ---------------------------------------------------------------------------
# intertwiners as data


@dataclass(eq=False)
class Hom:
    """A vertex-indexed family of matrices T_v: source_v -> target_v."""

    source: Rep
    target: Rep
    mats: dict[str, np.ndarray]

    @cached_property
    def residual(self) -> float:
        """Relative intertwining defect, computed when first read:
        max over arrows of |T_dst f - g T_src| / (1 + |f||T_dst| + |g||T_src|).
        """
        return hom_residual(self.source, self.target, self.mats)

    def norm(self) -> float:
        return float(np.sqrt(sum(np.sum(np.abs(m) ** 2) for m in self.mats.values())))


def hom_residual(source: Rep, target: Rep, mats: dict[str, np.ndarray]) -> float:
    """The largest `Hom.residual` over blocks T_v, or over stacks of them.

    Each `mats[v]` is one block or a stack with a leading axis (one entry per
    hom); norms run over the last two axes.  A ratio that is NaN (inf / inf,
    or a norm that overflowed times 0) counts as inf: nothing vouches for it.
    """
    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for a in source.quiver.arrows:
            f = source.mats[a.name]
            g = target.mats[a.name]
            td, ts = mats[a.dst], mats[a.src]
            defect = np.linalg.norm(td @ f - g @ ts, axis=(-2, -1))
            scale = (1.0 + np.linalg.norm(f) * np.linalg.norm(td, axis=(-2, -1))
                     + np.linalg.norm(g) * np.linalg.norm(ts, axis=(-2, -1)))
            ratio = defect / scale
            worst = max(worst, float(np.max(np.where(np.isnan(ratio), np.inf, ratio), initial=0.0)))
    return worst


def make_hom(source: Rep, target: Rep, mats: dict) -> Hom:
    """Package matrices as a Hom, validating vertices and shapes (missing blocks are zero)."""
    if source.quiver != target.quiver:
        raise ValueError("a hom needs source and target over the same quiver")
    mats = dict(mats)
    full = {}
    for v in source.quiver.vertices:
        want = (target.dims[v], source.dims[v])
        m = mats.pop(v, None)
        m = np.zeros(want, dtype=complex) if m is None else np.asarray(m, dtype=complex)
        if m.shape != want:
            raise ValueError(f"block {v!r} has shape {m.shape}, expected {want}")
        full[v] = m
    if mats:
        raise ValueError(f"blocks for unknown vertices {list(mats)}")
    return Hom(source, target, full)


def identity_hom(r: Rep) -> Hom:
    return make_hom(r, r, {v: np.eye(r.dims[v], dtype=complex) for v in r.quiver.vertices})


def is_invertible_hom(h: Hom) -> bool:
    return all(linalg.is_invertible(h.mats[v]) for v in h.source.quiver.vertices)


def idempotent_fault(e: Hom) -> str | None:
    """Why the endomorphism e is not a nontrivial idempotent, or None: each of max_v |e_v^2 - e_v|,
    the intertwining residual, |e| (e = 0) and |e - 1| (e = 1) is held to IDEM_TOL, in that order."""
    vertices = e.source.quiver.vertices
    sq_defect = max((float(np.linalg.norm(e.mats[v] @ e.mats[v] - e.mats[v])) for v in vertices), default=0.0)
    if sq_defect > IDEM_TOL:
        return f"not an idempotent: |e^2 - e| = {sq_defect:.3e} > {IDEM_TOL:g}"
    if e.residual > IDEM_TOL:
        return f"not an endomorphism: intertwining residual {e.residual:.3e} > {IDEM_TOL:g}"
    if e.norm() <= IDEM_TOL:
        return "e = 0 splits nothing; a nontrivial idempotent is required"
    if np.sqrt(sum(np.linalg.norm(e.mats[v] - np.eye(e.source.dims[v])) ** 2 for v in vertices)) <= IDEM_TOL:
        return "e = 1 splits nothing; a nontrivial idempotent is required"
    return None


class Decomposition(NamedTuple):
    first: Rep
    second: Rep
    witness: Hom  # isomorphism direct_sum(first, second) -> original


def decompose_with(r: Rep, e: Hom) -> Decomposition:
    """Split `r` along a nontrivial idempotent endomorphism.

    The two summands are the restrictions of `r` to the ranges of e and 1-e,
    each expressed in a deterministic orthonormal basis.  The witness is the
    basis-assembly isomorphism direct_sum(range, kernel) -> r.
    """
    fault = idempotent_fault(e)
    if fault:
        raise PreconditionError(fault)

    # Nonzero singular values of an idempotent are >= 1, so 0.5 splits cleanly.
    range_bases, kernel_bases = {}, {}
    for v in r.quiver.vertices:
        d = r.dims[v]
        ev = e.mats[v]
        for store, block in ((range_bases, ev), (kernel_bases, np.eye(d) - ev)):
            u, s, _ = np.linalg.svd(block)
            k = int(np.sum(s > 0.5))
            store[v] = linalg.phase_normalize(u[:, :k])
        if range_bases[v].shape[1] + kernel_bases[v].shape[1] != d:
            raise PreconditionError(
                f"block {v!r}: range and kernel of e do not fill the space; e is too far from idempotent"
            )

    def restrict(bases):
        dims = {v: bases[v].shape[1] for v in r.quiver.vertices}
        mats = {
            a.name: bases[a.dst].conj().T @ r.mats[a.name] @ bases[a.src]
            for a in r.quiver.arrows
        }
        return new_rep(r.quiver, dims, mats)

    part1 = restrict(range_bases)
    part2 = restrict(kernel_bases)
    summed = direct_sum(part1, part2)
    witness = make_hom(
        summed,
        r,
        {v: np.hstack([range_bases[v], kernel_bases[v]]) for v in r.quiver.vertices},
    )
    return Decomposition(part1, part2, witness)
