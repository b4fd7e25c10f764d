"""Subspace-family representations over extended Dynkin shapes.

Each builder takes one operator s on K = C^k and produces a subspace system
in K^m (an opmodels.SubspaceSystem: labelled orthonormal injections), a
quiver, and a label for every vertex.  subspace_inclusion_rep turns these
into a representation: every vertex carries its labelled subspace, every
arrow the coordinate matrix of an inclusion.  The designs tie End of the
result to the commutant of s, so the representation is indecomposable
exactly when s is strongly irreducible.
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
    if j.shape[1] == 0:
        return j
    return linalg.qr_orthonormalize(j)


def _system(ambient: int, subspaces: dict[str, np.ndarray]) -> SubspaceSystem:
    return SubspaceSystem(ambient, list(subspaces.values()), tuple(subspaces))


def _validate_operator(s) -> tuple[np.ndarray, int]:
    s = np.asarray(s, dtype=complex)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] == 0:
        raise ValueError(f"the operator must be square and nonzero-sized, got shape {s.shape}")
    if not (np.all(np.isfinite(s.real)) and np.all(np.isfinite(s.imag))):
        raise ValueError("the operator has non-finite entries")
    return s, s.shape[0]


def _dn_tilde(n: int, s: np.ndarray, k: int) -> tuple[SubspaceSystem, Quiver, dict[str, str]]:
    if n < 4:
        raise PreconditionError(f"the two-fork family needs n >= 4, got {n}")
    eye = np.eye(k, dtype=complex)
    vertices = [str(i) for i in range(1, n + 2)]
    arrows = [
        ("a1", "1", "5"),
        ("a2", "2", "5"),
        ("a3", "3", str(n + 1)),
        ("a4", "4", str(n + 1)),
    ]
    arrows += [(f"p{i}", str(i), str(i + 1)) for i in range(5, n + 1)]
    q = new_quiver(vertices, arrows, name=f"D~{n}")
    subspaces = {
        "H1": _block_injection(2, k, [{0: eye}]),
        "H2": _block_injection(2, k, [{1: eye}]),
        "H3": _block_injection(2, k, [{0: eye, 1: s}]),
        "H4": _block_injection(2, k, [{0: eye, 1: eye}]),
        "full": _block_injection(2, k, [{0: eye}, {1: eye}]),
    }
    vertex_subspaces = {"1": "H1", "2": "H2", "3": "H3", "4": "H4"}
    for i in range(5, n + 2):
        vertex_subspaces[str(i)] = "full"
    return _system(2 * k, subspaces), q, vertex_subspaces


def _e6_tilde(s: np.ndarray, k: int) -> tuple[SubspaceSystem, Quiver, dict[str, str]]:
    eye = np.eye(k, dtype=complex)
    q = new_quiver(
        ["0", "1", "2", "1'", "2'", "1''", "2''"],
        [
            ("a1", "1", "0"),
            ("a2", "2", "1"),
            ("a1'", "1'", "0"),
            ("a2'", "2'", "1'"),
            ("a1''", "1''", "0"),
            ("a2''", "2''", "1''"),
        ],
        name="E~6",
    )
    subspaces = {
        "H0": _block_injection(3, k, [{0: eye}, {1: eye}, {2: eye}]),
        "H1": _block_injection(3, k, [{1: eye}, {2: eye}]),
        "H2": _block_injection(3, k, [{1: eye, 2: s}]),
        "H1'": _block_injection(3, k, [{0: eye}, {1: eye}]),
        "H2'": _block_injection(3, k, [{0: eye, 1: eye}]),
        "H1''": _block_injection(3, k, [{0: eye}, {2: eye}]),
        "H2''": _block_injection(3, k, [{0: eye, 2: eye}]),
    }
    return _system(3 * k, subspaces), q, {v: "H" + v for v in q.vertices}


def _e7_tilde(s: np.ndarray, k: int) -> tuple[SubspaceSystem, Quiver, dict[str, str]]:
    eye = np.eye(k, dtype=complex)
    q = new_quiver(
        ["0", "1", "2", "3", "1'", "2'", "3'", "1''"],
        [
            ("a1", "1", "0"),
            ("a2", "2", "1"),
            ("a3", "3", "2"),
            ("a1'", "1'", "0"),
            ("a2'", "2'", "1'"),
            ("a3'", "3'", "2'"),
            ("a1''", "1''", "0"),
        ],
        name="E~7",
    )
    subspaces = {
        "H0": _block_injection(4, k, [{0: eye}, {1: eye}, {2: eye}, {3: eye}]),
        "H1": _block_injection(4, k, [{0: eye}, {2: eye}, {3: eye}]),
        "H2": _block_injection(4, k, [{0: eye}, {2: eye, 3: eye}]),
        "H3": _block_injection(4, k, [{0: eye}]),
        "H1'": _block_injection(4, k, [{1: eye}, {2: eye}, {3: eye}]),
        "H2'": _block_injection(4, k, [{1: eye}, {2: eye, 3: s}]),
        "H3'": _block_injection(4, k, [{1: eye}]),
        "H1''": _block_injection(4, k, [{0: eye, 2: eye}, {1: eye, 3: eye}]),
    }
    return _system(4 * k, subspaces), q, {v: "H" + v for v in q.vertices}


def _e8_tilde(s: np.ndarray, k: int) -> tuple[SubspaceSystem, Quiver, dict[str, str]]:
    eye = np.eye(k, dtype=complex)
    q = new_quiver(
        ["0", "1", "2", "3", "4", "5", "1'", "2'", "1''"],
        [
            ("a1", "1", "0"),
            ("a2", "2", "1"),
            ("a3", "3", "2"),
            ("a4", "4", "3"),
            ("a5", "5", "4"),
            ("a1'", "1'", "0"),
            ("a2'", "2'", "1'"),
            ("a1''", "1''", "0"),
        ],
        name="E~8",
    )
    subspaces = {
        "H0": _block_injection(6, k, [{i: eye} for i in range(6)]),
        "H1": _block_injection(6, k, [{0: eye, 1: eye}, {2: eye}, {3: eye}, {4: eye}, {5: eye}]),
        "H2": _block_injection(6, k, [{2: eye}, {3: eye}, {4: eye}, {5: eye}]),
        "H3": _block_injection(6, k, [{3: eye}, {4: eye}, {5: eye}]),
        "H4": _block_injection(6, k, [{3: eye}, {4: eye, 5: s}]),
        "H5": _block_injection(6, k, [{3: eye}]),
        "H1'": _block_injection(6, k, [{0: eye}, {1: eye}, {2: eye, 4: eye}, {3: eye, 5: eye}]),
        "H2'": _block_injection(6, k, [{0: eye}, {1: eye}]),
        "H1''": _block_injection(6, k, [{0: eye, 4: eye}, {1: eye, 5: eye}, {2: eye}]),
    }
    return _system(6 * k, subspaces), q, {v: "H" + v for v in q.vertices}


def build_extended_dynkin(family: str, s, n: int | None = None) -> Rep:
    """Build the subspace representation of a family for the operator s on C^k.

    `family` is one of "d{n}tilde" (n >= 4), "e6tilde", "e7tilde", "e8tilde";
    a bare "dtilde" takes the fork count from `n`.
    """
    s, k = _validate_operator(s)
    fam = family.lower().replace("_", "").replace("-", "")
    m = re.fullmatch(r"d(\d*)tilde", fam)
    if m:
        count = int(m.group(1)) if m.group(1) else n
        if count is None:
            raise ValueError("the two-fork family needs its size, e.g. 'd4tilde'")
        parts = _dn_tilde(int(count), s, k)
    elif fam == "e6tilde":
        parts = _e6_tilde(s, k)
    elif fam == "e7tilde":
        parts = _e7_tilde(s, k)
    elif fam == "e8tilde":
        parts = _e8_tilde(s, k)
    else:
        raise ValueError(
            f"unknown family {family!r}; expected d<n>tilde, e6tilde, e7tilde or e8tilde"
        )
    return subspace_inclusion_rep(*parts)


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
