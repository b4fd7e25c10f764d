"""Oriented cycles C_n: the connectivity criterion for transitivity and
the zero-vertex contraction.

On C_n every transitive representation has all dimensions 0 or 1, and among
those, transitivity is equivalent to the nonzero vertices forming a single
component under the relation generated by the nonzero arrows (indices mod n,
so chains may wrap past vertex n).
"""

from __future__ import annotations

import numpy as np

from .config import TOL
from .errors import PreconditionError
from .linalg import connected_components
from .quiver import Quiver, cycle_walk, is_oriented_cycle, new_quiver
from .rep import Rep, new_rep


def cycle_quiver(n: int) -> Quiver:
    """The oriented cycle: arrows a_i : i -> i+1 for i < n and a_n : n -> 1."""
    if n < 1:
        raise ValueError(f"a cycle needs n >= 1 vertices, got {n}")
    vertices = [str(i) for i in range(1, n + 1)]
    arrows = [(f"a{i}", str(i), str(i % n + 1)) for i in range(1, n + 1)]
    return new_quiver(vertices, arrows, name=f"C{n}")


def cycle_rep(dims, scalars) -> Rep:
    """Representation of C_n from per-vertex dims and per-arrow scalars/matrices.

    Scalar entries are promoted to 1x1 matrices where both endpoints have
    dimension 1; arrows touching a zero vertex ignore their entry.
    """
    dims = list(dims)
    n = len(dims)
    q = cycle_quiver(n)
    scalars = list(scalars)
    if len(scalars) != n:
        raise ValueError(f"need {n} arrow entries, got {len(scalars)}")
    mats = {}
    for i in range(1, n + 1):
        src_d, dst_d = dims[i - 1], dims[i % n]
        entry = scalars[i - 1]
        if src_d == 0 or dst_d == 0:
            mats[f"a{i}"] = np.zeros((dst_d, src_d), dtype=complex)
        elif np.isscalar(entry):
            if (src_d, dst_d) != (1, 1):
                raise ValueError(
                    f"arrow a{i} joins dims {src_d} -> {dst_d}; a scalar entry needs 1 -> 1"
                )
            mats[f"a{i}"] = np.array([[entry]], dtype=complex)
        else:
            mats[f"a{i}"] = np.asarray(entry, dtype=complex)
    return new_rep(q, {str(i): dims[i - 1] for i in range(1, n + 1)}, mats)


def _cycle_order(q: Quiver) -> tuple[list[str], list[str]]:
    """Vertices and arrow names of an oriented cycle in cyclic order from vertices[0]."""
    if not is_oriented_cycle(q):
        raise PreconditionError("the quiver is not an oriented cycle")
    arrows = [a for a, _ in cycle_walk(q)]
    if arrows[0].src != q.vertices[0]:  # the walk went against the arrows
        arrows.reverse()
    return [a.src for a in arrows], [a.name for a in arrows]


def hf_components(r: Rep) -> list[tuple[int, ...]]:
    """Partition of the nonzero positions of a dims<=1 cycle representation.

    Positions i, j (1-based along the cycle) are related when some chain of
    arrows with nonzero scalars joins them, indices taken mod n.  Implemented
    as connected components of the undirected graph with an edge per nonzero
    arrow.
    """
    order_v, order_a = _cycle_order(r.quiver)
    n = len(order_v)
    if n == 1:
        raise PreconditionError(
            "a one-vertex cycle is a loop; the scalar criterion does not apply (use is_transitive)"
        )
    if any(r.dims[v] > 1 for v in order_v):
        raise PreconditionError("the component relation is defined for dims 0 and 1 only")
    t = TOL.get()
    live = [r.dims[v] == 1 for v in order_v]
    edges = [
        (i, (i + 1) % n)
        for i in range(n)
        if live[i] and live[(i + 1) % n] and abs(r.mats[order_a[i]][0, 0]) > t
    ]
    comps = connected_components(n, edges)
    return sorted(tuple(p + 1 for p in comp) for comp in comps if live[comp[0]])


def cn_transitive_criterion(r: Rep) -> bool:
    """Scalar-level transitivity test on an oriented cycle.

    False whenever some dimension exceeds 1 or all dimensions vanish; otherwise
    true exactly when the nonzero vertices form one component.
    """
    order_v, _ = _cycle_order(r.quiver)
    if len(order_v) > 1 and any(r.dims[v] > 1 for v in order_v):
        return False
    return len(hf_components(r)) == 1


def reduce_zero_vertex(r: Rep, k: int) -> Rep:
    """Contract a zero vertex of C_n (n >= 3) to a representation of C_{n-1}.

    Position k (1-based along the cycle) must carry dimension 0.  The two
    arrows at k merge into one zero arrow of the smaller cycle; End is
    isomorphic before and after.
    """
    order_v, order_a = _cycle_order(r.quiver)
    n = len(order_v)
    if n < 3:
        raise PreconditionError(f"contraction needs n >= 3, got n = {n}")
    if not 1 <= k <= n:
        raise ValueError(f"position k must be in 1..{n}, got {k}")
    if r.dims[order_v[k - 1]] != 0:
        raise PreconditionError(
            f"position {k} has dimension {r.dims[order_v[k - 1]]}; contraction removes a zero vertex"
        )

    # the arrow into position k now joins its two neighbours and carries the zero map
    dims = [r.dims[v] for v in order_v]
    mats = [r.mats[a] for a in order_a]
    into = (k - 2) % n
    mats[into] = np.zeros((dims[k % n], dims[into]), dtype=complex)
    del dims[k - 1], mats[k - 1]
    return cycle_rep(dims, mats)
