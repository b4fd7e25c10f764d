"""Reflection functors at sinks and sources, duality, and orientation sequences.

The forward reflection at a sink v replaces H_v by the kernel of the combined
arrival map [f_a]_{a into v}; the backward reflection at a source replaces it
by the kernel of the adjoint departure map [g_a*]_{a out of v}, the orthogonal
complement of the image of the departure map (blocks in arrow declaration
order).  Either way the arrows at v are reversed and marked, each carrying
its block of the kernel basis (its adjoint at a source), and the kernel basis
carries homs along.  (Co-)fullness at v is read from the reflection.

A reflection depends on the representation alone, whose matrices are
read-only, so each is made once per `Rep` object and kept on it, as End is:
asking again for the same vertex and direction returns the same
`ReflectionResult`, which is frozen and holds a read-only kernel basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import linalg
from .config import IDEM_TOL
from .errors import PreconditionError
from .hom import end_basis
from .quiver import new_quiver, opposite, parse_orientation, toggle_mark
from .rep import Hom, Rep, hom_residual, make_hom, new_rep

# verify_end_isomorphism checks multiplicativity for a batch of basis elements
# B_i at once, against every B_j; a batch's stacks hold about this many entries.
MULT_BATCH_ENTRIES = 1 << 16


@dataclass(frozen=True, eq=False)
class ReflectionResult:
    """A reflected representation plus the data needed to transport homs."""

    rep: Rep
    source_rep: Rep
    vertex: str
    direction: str  # "sink" (forward) or "source" (backward)
    kernel_basis: np.ndarray  # read-only orthonormal columns in the stacked block space
    block_vertices: tuple[str, ...]  # stacked block, one entry per arrow at the vertex
    block_offsets: tuple[int, ...]


def _reflect(r: Rep, v: str, direction: str) -> ReflectionResult:
    """Reflect r at the sink or source v and keep the result on r; a call that raises keeps nothing."""
    q, sink = r.quiver, direction == "sink"
    if v not in q.vertices:
        raise ValueError(f"no vertex {v!r} in quiver {q.name!r}")
    if q.arrows_out_of(v) if sink else q.arrows_into(v):
        kind, way = ("sink", "forward") if sink else ("source", "backward")
        raise PreconditionError(f"vertex {v!r} is not a {kind}; the {way} reflection is defined only at a {kind}")
    arrows = q.arrows_into(v) if sink else q.arrows_out_of(v)
    verts = tuple(a.src if sink else a.dst for a in arrows)  # the far end of each arrow
    offsets = tuple(accumulate([r.dims[u] for u in verts], initial=0))[:-1]
    # the map whose kernel is the new H_v: [f_a] at a sink, [g_a*] at a source
    blocks = [r.mats[a.name] if sink else r.mats[a.name].conj().T for a in arrows]
    h = np.hstack(blocks) if blocks else np.zeros((r.dims[v], 0))
    kernel = linalg.read_only(linalg.nullspace(h))  # total x k

    dims = dict(r.dims)
    dims[v] = kernel.shape[1]
    mats = {a.name: r.mats[a.name] for a in q.arrows if a not in arrows}
    for a, u, off in zip(arrows, verts, offsets):
        block = kernel[off : off + r.dims[u], :]  # the reversed arrow's map between v and u
        mats[toggle_mark(a.name)] = block if sink else block.conj().T
    # new_quiver rejects a marked name that clashes with an arrow kept as it is
    flipped = [a.reversed() if a in arrows else a for a in q.arrows]
    out = new_rep(new_quiver(q.vertices, [(a.name, a.src, a.dst) for a in flipped], name=q.name), dims, mats)
    r._kept[(v, direction)] = res = ReflectionResult(out, r, v, direction, kernel, verts, offsets)
    return res


def reflect_sink(r: Rep, v: str) -> ReflectionResult:
    """Forward reflection at a sink: the arrows into v are reversed and marked."""
    return r._kept.get((v, "sink")) or _reflect(r, v, "sink")


def reflect_source(r: Rep, v: str) -> ReflectionResult:
    """Backward reflection at a source: the arrows out of v are reversed and marked."""
    return r._kept.get((v, "source")) or _reflect(r, v, "source")


def _hypothesis_ok(res: ReflectionResult) -> bool:
    """Full at the sink (co-full at the source): the map whose kernel is the
    reflected H_v is onto H_v, so that kernel has dimension Σ dim(far ends) − dim H_v."""
    r, v = res.source_rep, res.vertex
    return res.rep.dims[v] == sum(r.dims[u] for u in res.block_vertices) - r.dims[v]


def dual(r: Rep) -> Rep:
    """Adjoint representation on the opposite quiver; an exact involution."""
    q_op = opposite(r.quiver)
    mats = {toggle_mark(a.name): r.mats[a.name].conj().T for a in r.quiver.arrows}
    return new_rep(q_op, dict(r.dims), mats)


def _carried_block(res1: ReflectionResult, res2: ReflectionResult, blocks: dict, lead=()) -> np.ndarray:
    """K2* (⊕ T_u) K1 = Σ_u K2_u* T_u K1_u over the stacked blocks of the reflections.

    `blocks` maps each vertex u to T_u, or to a stack of shape lead + T_u.shape;
    the result has shape lead + (dim of the reflected target, dim of the
    reflected source) at the vertex.
    """
    k1, k2 = res1.kernel_basis, res2.kernel_basis
    out = np.zeros(lead + (k2.shape[1], k1.shape[1]), dtype=complex)
    for u, off1, off2 in zip(res1.block_vertices, res1.block_offsets, res2.block_offsets):
        t = blocks[u]
        out += k2[off2 : off2 + t.shape[-2]].conj().T @ t @ k1[off1 : off1 + t.shape[-1]]
    return out


def transport_hom(res1: ReflectionResult, res2: ReflectionResult, t: Hom) -> Hom:
    """Carry a hom between the source representations through the reflections.

    res1 and res2 must be reflections at the same vertex and direction of the
    hom's source and target; the new block at the vertex is K2* (⊕ T_u) K1
    over the stacked blocks, and every other block is copied.
    """
    if res1.vertex != res2.vertex or res1.direction != res2.direction:
        raise ValueError("transport needs reflections at the same vertex and direction")
    mats = dict(t.mats)
    mats[res1.vertex] = _carried_block(res1, res2, t.mats)
    return make_hom(res1.rep, res2.rep, mats)


# ---------------------------------------------------------------------------
# hypothesis predicates


def is_full_at_sink(r: Rep, v: str) -> bool:
    """rank of the combined arrival map equals dim H_v, read from the kept reflection."""
    return _hypothesis_ok(reflect_sink(r, v))


def is_co_full_at_source(r: Rep, v: str) -> bool:
    """rank of the combined departure map equals dim H_v, read from the kept reflection."""
    return _hypothesis_ok(reflect_source(r, v))


# ---------------------------------------------------------------------------
# End-algebra comparison


@dataclass
class EndIsoReport:
    vertex: str
    direction: str  # "plus" | "minus"
    hypothesis_ok: bool
    end_dim: int
    end_dim_reflected: int
    dims_equal: bool
    transport_full_rank: bool
    max_membership_residual: float
    max_multiplicativity_residual: float

    @property
    def ok(self) -> bool:
        return (
            self.hypothesis_ok
            and self.dims_equal
            and self.transport_full_rank
            and self.max_membership_residual <= IDEM_TOL
            and self.max_multiplicativity_residual <= IDEM_TOL
        )


def verify_end_isomorphism(r: Rep, v: str, direction: str) -> EndIsoReport:
    """Check that the reflection carries End(r) isomorphically onto End(reflected).

    direction "plus" reflects at a sink (hypothesis: full), "minus" at a source
    (hypothesis: co-full).  When the hypothesis fails the comparison still runs
    and the report flags the violated hypothesis instead of guessing.
    """
    if direction == "plus":
        res = reflect_sink(r, v)
    elif direction == "minus":
        res = reflect_source(r, v)
    else:
        raise ValueError(f"direction must be 'plus' or 'minus', got {direction!r}")

    eb = end_basis(r)
    eb2 = end_basis(res.rep)
    m = eb.dim
    # The transport changes only the block at v, so the images are eb's
    # stacks with the one at v replaced, and multiplicativity can only fail at v.
    images = dict(eb.blocks)
    images[v] = _carried_block(res, res, eb.blocks, (m,))
    memb = hom_residual(res.rep, res.rep, images)

    # A (batch, m, k, k) stack per batch of i, over all j: all pairs at once
    # would hold m^2 k^2 entries, about 4 d^6 for End(r) = M_d.
    arms = set(res.block_vertices)
    per_i = m * max([res.rep.dims[v]] + [r.dims[u] for u in arms]) ** 2
    step = max(1, MULT_BATCH_ENTRIES // max(per_i, 1))
    mult = 0.0
    for i in range(0, m, step):
        products = {u: eb.blocks[u][i : i + step, None] @ eb.blocks[u] for u in arms}
        composed = _carried_block(res, res, products, (min(step, m - i), m))  # images of B_i B_j
        direct = images[v][i : i + step, None] @ images[v]  # image of B_i times images of B_j
        mult = max(mult, float(np.max(np.linalg.norm(composed - direct, axis=(-2, -1)))))

    flat = np.hstack([images[u].reshape(m, res.rep.dims[u] ** 2) for u in res.rep.quiver.vertices])
    full_rank = linalg.matrix_rank(flat) == m

    return EndIsoReport(
        vertex=v,
        direction=direction,
        hypothesis_ok=_hypothesis_ok(res),
        end_dim=eb.dim,
        end_dim_reflected=eb2.dim,
        dims_equal=eb.dim == eb2.dim,
        transport_full_rank=full_rank,
        max_membership_residual=memb,
        max_multiplicativity_residual=mult,
    )


# ---------------------------------------------------------------------------
# orientation walks on A_n


def orientation_sequence_an(n: int, target) -> list[str]:
    """Vertices of `an_quiver(n)` to backward-reflect, in order, turning the
    all-rightward A_n path into the given orientation.

    Every emitted vertex is a source of the intermediate orientation at its
    step and is never the last vertex "n".  The construction sweeps each
    leftward edge of the target from edge 1 outwards, farthest target
    position first.
    """
    if n < 1:
        raise PreconditionError(f"A_n needs n >= 1, got {n}")
    dirs = parse_orientation(n, target)
    targets = [i + 1 for i, right in enumerate(dirs) if not right]  # 1-based edge positions

    seq: list[str] = []
    for p in sorted(targets, reverse=True):
        seq.extend(str(i) for i in range(1, p + 1))
    return seq
