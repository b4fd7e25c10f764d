"""Finite quiver data model: vertex classification, orientation surgery, shape recognition.

A quiver is a finite directed multigraph.  Vertex and arrow identifiers are
strings, loops and parallel arrows are allowed, and declaration order is
significant: every operation that stacks blocks per arrow does so in
declaration order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import connected_components

REVERSAL_MARK = "~"


@dataclass(frozen=True)
class Arrow:
    name: str
    src: str
    dst: str

    def reversed(self) -> Arrow:
        """The arrow dst -> src; reversing twice restores the original id."""
        return Arrow(toggle_mark(self.name), self.dst, self.src)


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    name: str = field(default="Q", compare=False)

    def arrows_into(self, v: str) -> list[Arrow]:
        return [a for a in self.arrows if a.dst == v]

    def arrows_out_of(self, v: str) -> list[Arrow]:
        return [a for a in self.arrows if a.src == v]


def new_quiver(vertices, arrows, name: str = "Q") -> Quiver:
    """Build a quiver from vertex labels and (name, src, dst) triples, all strings."""
    vs = tuple(vertices)
    if any(not isinstance(v, str) for v in vs):
        raise ValueError(f"vertex labels must be strings, got {vs}")
    if len(vs) == 0:
        raise ValueError("a quiver needs at least one vertex")
    if len(set(vs)) != len(vs):
        raise ValueError(f"duplicate vertex labels in {vs}")
    built = []
    seen = set()
    for nm, src, dst in arrows:
        if not isinstance(nm, str):
            raise ValueError(f"arrow names must be strings, got {nm!r}")
        a = Arrow(nm, src, dst)
        if a.name in seen:
            raise ValueError(f"duplicate arrow name {a.name!r}")
        seen.add(a.name)
        if a.src not in vs or a.dst not in vs:
            raise ValueError(f"arrow {a.name!r}: endpoint {a.src!r} -> {a.dst!r} not among vertices")
        built.append(a)
    return Quiver(vs, tuple(built), name=name)


# by (emits an arrow, receives an arrow)
_KINDS = {(False, False): "isolated", (False, True): "sink", (True, False): "source", (True, True): "internal"}


def vertex_kinds(q: Quiver) -> dict[str, str]:
    """Classify every vertex as 'sink', 'source', 'internal' or 'isolated'.

    A sink emits no arrow, a source receives none (the test the reflections
    apply); a loop makes its vertex internal (it both emits and receives).
    """
    return {v: _KINDS[bool(q.arrows_out_of(v)), bool(q.arrows_into(v))] for v in q.vertices}


def toggle_mark(name: str) -> str:
    """Arrow id for a reversed arrow; reversing twice restores the original id."""
    if name.endswith(REVERSAL_MARK):
        return name[: -len(REVERSAL_MARK)]
    return name + REVERSAL_MARK


def opposite(q: Quiver) -> Quiver:
    """Reverse every arrow; applying twice restores the quiver, ids included."""
    return Quiver(q.vertices, tuple(a.reversed() for a in q.arrows), name=q.name)


def cycle_walk(q: Quiver) -> list[tuple[Arrow, str]] | None:
    """One walk around the underlying graph, when it is a single cycle through every vertex.

    The walk starts at vertices[0] along its first declared incident arrow and
    leaves every later vertex by its other incident arrow.  Returns the
    (arrow, tail) pairs in walk order, where tail is the vertex the walk
    leaves by that arrow, so the arrow agrees with the walk exactly when
    arrow.src == tail.  Returns None for any other underlying graph.
    """
    if len(q.arrows) != len(q.vertices):
        return None
    incident: dict[str, list[Arrow]] = {v: [] for v in q.vertices}
    for a in q.arrows:
        incident[a.src].append(a)
        if a.dst != a.src:
            incident[a.dst].append(a)
    walk, used, v = [], set(), q.vertices[0]
    for _ in q.arrows:
        nxt = [a for a in incident[v] if a.name not in used]
        if not nxt:
            return None
        walk.append((nxt[0], v))
        used.add(nxt[0].name)
        v = nxt[0].dst if nxt[0].src == v else nxt[0].src
    if v != q.vertices[0] or len({tail for _, tail in walk}) != len(q.vertices):
        return None
    return walk


def is_oriented_cycle(q: Quiver) -> bool:
    """True when the quiver is a single directed cycle 1 -> 2 -> ... -> n -> 1 (any labels)."""
    walk = cycle_walk(q)
    if walk is None:
        return False
    return all(a.src == tail for a, tail in walk) or all(a.src != tail for a, tail in walk)


@dataclass(frozen=True)
class GraphFamily:
    family: str  # "A", "D", "E6", "E7", "E8", "A~", "D~", "E6~", "E7~", "E8~", "other"
    n: int | None = None
    oriented_cycle: bool = False

    @property
    def label(self) -> str:
        if self.n is None:
            return self.family
        return f"{self.family}{self.n}"


def _connected(q: Quiver) -> bool:
    index = {v: i for i, v in enumerate(q.vertices)}
    edges = [(index[a.src], index[a.dst]) for a in q.arrows]
    return len(connected_components(len(q.vertices), edges)) == 1


# the three-armed stars other than D, by sorted arm lengths (edges from the centre)
_STAR_FAMILIES = {(1, 2, 2): "E6", (1, 2, 3): "E7", (1, 2, 4): "E8",
                  (2, 2, 2): "E6~", (1, 3, 3): "E7~", (1, 2, 5): "E8~"}


def graph_family(q: Quiver) -> GraphFamily:
    """Recognize the underlying undirected multigraph.

    Returns the (extended) Dynkin family when the shape matches:
    A_n paths, D_n / E6 / E7 / E8 trees, the cycles A~_{n-1} (with an
    oriented_cycle flag), D~_n (n >= 4) and E6~/E7~/E8~.  Everything else
    is tagged "other".
    """
    if not _connected(q):
        return GraphFamily("other")
    nv = len(q.vertices)
    if cycle_walk(q) is not None:
        return GraphFamily("A~", nv - 1, oriented_cycle=is_oriented_cycle(q))
    if len(q.arrows) != nv - 1:
        return GraphFamily("other")

    # trees from here on: walk each arm of each branch vertex to its end, a leaf or a branch vertex
    adj: dict[str, list[str]] = {v: [] for v in q.vertices}
    for a in q.arrows:
        adj[a.src].append(a.dst)
        adj[a.dst].append(a.src)
    branch = [v for v in q.vertices if len(adj[v]) >= 3]
    if not branch:
        return GraphFamily("A", nv)
    arms = []  # (length in edges, end vertex)
    for c in branch:
        for cur in adj[c]:
            length, prev = 1, c
            while len(adj[cur]) == 2:
                prev, cur = cur, next(w for w in adj[cur] if w != prev)
                length += 1
            arms.append((length, cur))
    if len(branch) == 1:
        lengths = tuple(sorted(length for length, _ in arms))
        if lengths == (1, 1, 1, 1):
            return GraphFamily("D~", 4)
        if len(lengths) == 3 and lengths[:2] == (1, 1):
            return GraphFamily("D", nv)
        return GraphFamily(_STAR_FAMILIES.get(lengths, "other"))
    # D~n (n >= 5): two branch vertices of degree 3, whose four arms to a leaf all have length 1
    leaf_arms = [length for length, end in arms if len(adj[end]) == 1]
    if len(branch) == 2 and len(arms) == 6 and leaf_arms == [1, 1, 1, 1]:
        return GraphFamily("D~", nv - 1)
    return GraphFamily("other")


# ---------------------------------------------------------------------------
# common shapes


def jordan_quiver() -> Quiver:
    """One vertex with a loop."""
    return new_quiver(["1"], [("a", "1", "1")], name="jordan")


def kronecker_quiver() -> Quiver:
    """Two vertices, two parallel arrows 1 -> 2."""
    return new_quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")], name="kronecker")


def an_quiver(n: int, orientation=None) -> Quiver:
    """A_n path on vertices 1..n; edge i joins i and i+1.

    `orientation` is a string over '><' (or an iterable of bools, True for
    rightward i -> i+1) of length n-1; default all rightward.
    """
    if n < 1:
        raise ValueError(f"A_n needs n >= 1, got {n}")
    dirs = parse_orientation(n, orientation)
    arrows = []
    for i, right in enumerate(dirs, start=1):
        if right:
            arrows.append((f"e{i}", str(i), str(i + 1)))
        else:
            arrows.append((f"e{i}", str(i + 1), str(i)))
    return new_quiver([str(i) for i in range(1, n + 1)], arrows, name=f"A{n}")


def parse_orientation(n: int, orientation) -> list[bool]:
    """Normalize an A_n orientation to a list of n-1 bools (True = rightward)."""
    if orientation is None:
        return [True] * (n - 1)
    if isinstance(orientation, str):
        bad = set(orientation) - {">", "<"}
        if bad:
            raise ValueError(f"orientation characters must be '>' or '<', got {sorted(bad)}")
        dirs = [c == ">" for c in orientation]
    else:
        dirs = [bool(x) for x in orientation]
    if len(dirs) != n - 1:
        raise ValueError(f"orientation needs {n - 1} entries for A_{n}, got {len(dirs)}")
    return dirs
