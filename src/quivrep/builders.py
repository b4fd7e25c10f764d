"""Subspace-family representations over extended Dynkin shapes.

Every family is data for one operator s on K = C^k: a block count m, the
arrows, and per vertex a list of block columns spanning a subspace of K^m.
A block column maps block rows to "I" (the identity) or "S" (the operator),
so [{0: "I", 1: "S"}] is the graph {(x, s x)} in K^2.  _E_TILDE holds E~6,
E~7 and E~8 with their arm lengths (arrows a{i}{mark}: i -> i - 1 along each
arm, into the unmarked centre 0); _dn_tilde(n) gives D~n.  One path,
build_extended_dynkin, turns the data into a SubspaceSystem, and
subspace_inclusion_rep that into a representation of coordinate inclusions.
The designs tie End of the result to the commutant of s, so it is
indecomposable exactly when s is strongly irreducible.
"""

from __future__ import annotations

import re
from typing import NamedTuple

import numpy as np

from . import linalg
from .config import TOL
from .errors import PreconditionError
from .opmodels import SubspaceSystem
from .quiver import Quiver, cycle_walk, graph_family, is_oriented_cycle, new_quiver
from .rep import Rep, new_rep


def subspace_inclusion_rep(
    system: SubspaceSystem, quiver: Quiver, vertex_subspaces: dict[str, str]
) -> Rep:
    """Check the inclusions and produce the representation of coordinate matrices.

    `vertex_subspaces` labels every vertex with one of the system's subspaces.
    An arrow u -> v needs S_u <= S_v, i.e. |(1 - P_v) J_u| <= TOL; the arrow
    matrix is then J_v* J_u.
    """
    subspaces = dict(zip(system.labels, system.injections))
    for v in quiver.vertices:
        if v not in vertex_subspaces:
            raise ValueError(f"vertex {v!r} has no assigned subspace")
        if vertex_subspaces[v] not in subspaces:
            raise ValueError(f"vertex {v!r} names unknown subspace {vertex_subspaces[v]!r}")

    dims = {v: subspaces[vertex_subspaces[v]].shape[1] for v in quiver.vertices}
    mats = {}
    for a in quiver.arrows:
        s_name, t_name = vertex_subspaces[a.src], vertex_subspaces[a.dst]
        js, jt = subspaces[s_name], subspaces[t_name]
        defect = np.linalg.norm(js - jt @ (jt.conj().T @ js))
        if defect > TOL.get() * max(1.0, np.linalg.norm(js)):
            raise PreconditionError(
                f"arrow {a.name!r}: subspace {s_name!r} is not contained in {t_name!r} "
                f"(defect {defect:.2e}); inclusion arrows need nested subspaces"
            )
        mats[a.name] = jt.conj().T @ js
    return new_rep(quiver, dims, mats)


def _block_injection(m: int, k: int, cols: list[dict[int, np.ndarray]]) -> np.ndarray:
    """Injection into (C^k)^m from block-column descriptions {block_row: k x k}."""
    j = np.zeros((m * k, len(cols) * k), dtype=complex)
    for g, spec in enumerate(cols):
        for row, blk in spec.items():
            j[row * k : (row + 1) * k, g * k : (g + 1) * k] = blk
    return linalg.qr_orthonormalize(j)


def _validate_operator(s) -> tuple[np.ndarray, int]:
    s = np.asarray(s, dtype=complex)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] == 0:
        raise ValueError(f"the operator must be square and nonzero-sized, got shape {s.shape}")
    if not (np.all(np.isfinite(s.real)) and np.all(np.isfinite(s.imag))):
        raise ValueError("the operator has non-finite entries")
    return s, s.shape[0]


_E_TILDE = {
    "e6tilde": (3, (2, 2, 2), {
        "0": [{0: "I"}, {1: "I"}, {2: "I"}],
        "1": [{1: "I"}, {2: "I"}],
        "2": [{1: "I", 2: "S"}],
        "1'": [{0: "I"}, {1: "I"}],
        "2'": [{0: "I", 1: "I"}],
        "1''": [{0: "I"}, {2: "I"}],
        "2''": [{0: "I", 2: "I"}],
    }),
    "e7tilde": (4, (3, 3, 1), {
        "0": [{0: "I"}, {1: "I"}, {2: "I"}, {3: "I"}],
        "1": [{0: "I"}, {2: "I"}, {3: "I"}],
        "2": [{0: "I"}, {2: "I", 3: "I"}],
        "3": [{0: "I"}],
        "1'": [{1: "I"}, {2: "I"}, {3: "I"}],
        "2'": [{1: "I"}, {2: "I", 3: "S"}],
        "3'": [{1: "I"}],
        "1''": [{0: "I", 2: "I"}, {1: "I", 3: "I"}],
    }),
    "e8tilde": (6, (5, 2, 1), {
        "0": [{0: "I"}, {1: "I"}, {2: "I"}, {3: "I"}, {4: "I"}, {5: "I"}],
        "1": [{0: "I", 1: "I"}, {2: "I"}, {3: "I"}, {4: "I"}, {5: "I"}],
        "2": [{2: "I"}, {3: "I"}, {4: "I"}, {5: "I"}],
        "3": [{3: "I"}, {4: "I"}, {5: "I"}],
        "4": [{3: "I"}, {4: "I", 5: "S"}],
        "5": [{3: "I"}],
        "1'": [{0: "I"}, {1: "I"}, {2: "I", 4: "I"}, {3: "I", 5: "I"}],
        "2'": [{0: "I"}, {1: "I"}],
        "1''": [{0: "I", 4: "I"}, {1: "I", 5: "I"}, {2: "I"}],
    }),
}


def _dn_tilde(n: int) -> tuple[str, int, list, dict]:
    """D~n: 1, 2 -> 5 and 3, 4 -> n + 1, with the path 5 -> ... -> n + 1 on all of K^2."""
    if n < 4:
        raise PreconditionError(f"the two-fork family needs n >= 4, got {n}")
    arrows = [("a1", "1", "5"), ("a2", "2", "5"), ("a3", "3", str(n + 1)), ("a4", "4", str(n + 1))]
    arrows += [(f"p{i}", str(i), str(i + 1)) for i in range(5, n + 1)]
    columns = {"1": [{0: "I"}], "2": [{1: "I"}], "3": [{0: "I", 1: "S"}], "4": [{0: "I", 1: "I"}]}
    columns.update({str(i): [{0: "I"}, {1: "I"}] for i in range(5, n + 2)})
    return f"D~{n}", 2, arrows, columns


def build_extended_dynkin(family: str, s, n: int | None = None) -> Rep:
    """Build the subspace representation of a family for the operator s on C^k.

    `family` is one of "d{n}tilde" (n >= 4), "e6tilde", "e7tilde", "e8tilde";
    a bare "dtilde" takes the fork count from `n`.
    """
    s, k = _validate_operator(s)
    fam = family.lower().replace("_", "").replace("-", "")
    match = re.fullmatch(r"d(\d*)tilde", fam)
    if match:
        count = int(match.group(1)) if match.group(1) else n
        if count is None:
            raise ValueError("the two-fork family needs its size, e.g. 'd4tilde'")
        name, m, arrows, columns = _dn_tilde(int(count))
    elif fam in _E_TILDE:
        m, arms, columns = _E_TILDE[fam]
        name = f"E~{fam[1]}"
        arrows = [(f"a{i}{mark}", f"{i}{mark}", f"{i - 1}{mark}" if i > 1 else "0")
                  for mark, length in zip(("", "'", "''"), arms) for i in range(1, length + 1)]
    else:
        raise ValueError(f"unknown family {family!r}; expected d<n>tilde, e6tilde, e7tilde or e8tilde")
    blocks = {"I": np.eye(k, dtype=complex), "S": s}
    injections = [_block_injection(m, k, [{r: blocks[b] for r, b in col.items()} for col in cols])
                  for cols in columns.values()]
    system = SubspaceSystem(m * k, injections, tuple(columns))
    quiver = new_quiver(list(columns), arrows, name=name)
    return subspace_inclusion_rep(system, quiver, {v: v for v in columns})


class AnTildeRep(NamedTuple):
    rep: Rep
    arrow_a: str  # the arrow carrying the first operator
    arrow_b: str  # the arrow carrying the second operator


def build_an_tilde_noncyclic(orientation: Quiver, a, b) -> AnTildeRep:
    """Representation of a non-cyclically oriented cycle graph from a pair (a, b).

    Every vertex carries C^N; the first arrow agreeing with the cyclic
    traversal carries `a`, the first one opposing it carries `b`, everything
    else the identity.  The orientation must contain both senses (an oriented
    cycle is rejected) and the two operators must act on the same space.
    """
    fam = graph_family(orientation)
    if fam.family != "A~":
        raise PreconditionError(
            f"the underlying graph must be a single cycle; got {fam.label}"
        )
    if is_oriented_cycle(orientation):
        raise PreconditionError(
            "the orientation is a directed cycle; this construction needs both senses present"
        )
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need two square matrices of equal size, got {a.shape} and {b.shape}")
    size = a.shape[0]

    walk = cycle_walk(orientation)
    with_arrow = next(arr.name for arr, tail in walk if arr.src == tail)
    against_arrow = next(arr.name for arr, tail in walk if arr.src != tail)
    mats = {arr.name: np.eye(size, dtype=complex) for arr in orientation.arrows}
    mats[with_arrow], mats[against_arrow] = a, b
    rep = new_rep(orientation, {vtx: size for vtx in orientation.vertices}, mats)
    return AnTildeRep(rep, with_arrow, against_arrow)
