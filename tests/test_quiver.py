import math
import random
import unittest

import numpy as np
import pytest

import quivrep as qr
from quivrep.quiver import (
    cycle_walk,
    graph_family,
    parse_orientation,
    toggle_mark,
    vertex_kinds,
)


class QuiverBasics(unittest.TestCase):
    def test_kronecker_shape(self):
        q = qr.kronecker_quiver()
        self.assertEqual(q.vertices, ("1", "2"))
        self.assertEqual([a.name for a in q.arrows], ["a", "b"])
        kinds = vertex_kinds(q)
        self.assertEqual(kinds["1"], "source")
        self.assertEqual(kinds["2"], "sink")

    def test_loop_vertex_is_internal(self):
        q = qr.jordan_quiver()
        kinds = vertex_kinds(q)
        self.assertEqual(list(kinds.values()), ["internal"])

    def test_duplicate_vertex_rejected(self):
        with self.assertRaises(ValueError):
            qr.new_quiver(["1", "1"], [])

    def test_duplicate_arrow_name_rejected(self):
        with self.assertRaises(ValueError):
            qr.new_quiver(["1", "2"], [("a", "1", "2"), ("a", "2", "1")])

    def test_unknown_endpoint_rejected(self):
        with self.assertRaises(ValueError):
            qr.new_quiver(["1"], [("a", "1", "7")])

    def test_isolated_vertex_kind(self):
        q = qr.new_quiver(["1", "2"], [("a", "1", "1")])
        self.assertEqual(vertex_kinds(q)["2"], "isolated")


@pytest.mark.parametrize("vertices, arrows", [
    (["1", 2], []),
    (["1", "2"], [(0, "1", "2")]),
])
def test_new_quiver_rejects_labels_that_are_not_strings(vertices, arrows):
    with pytest.raises(ValueError, match="must be strings"):
        qr.new_quiver(vertices, arrows)


def test_toggle_mark_round_trips():
    assert toggle_mark("e3") == "e3~"
    assert toggle_mark("e3~") == "e3"


def test_opposite_is_an_involution():
    q = qr.cycle_quiver(3)
    qq = qr.opposite(qr.opposite(q))
    assert qq.vertices == q.vertices
    assert [(a.name, a.src, a.dst) for a in qq.arrows] == [
        (a.name, a.src, a.dst) for a in q.arrows
    ]


def test_oriented_cycle_detection():
    assert qr.is_oriented_cycle(qr.cycle_quiver(2))
    assert qr.is_oriented_cycle(qr.cycle_quiver(5))
    assert not qr.is_oriented_cycle(qr.kronecker_quiver())
    mixed = qr.new_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "3", "2"), ("c", "3", "1")])
    assert not qr.is_oriented_cycle(mixed)
    assert qr.is_oriented_cycle(qr.jordan_quiver())
    reverse_declared = qr.new_quiver(["1", "2", "3"], [("x", "3", "1"), ("y", "1", "2"), ("z", "2", "3")])
    assert qr.is_oriented_cycle(reverse_declared)
    two_loops = qr.new_quiver(["1", "2"], [("a", "1", "1"), ("b", "2", "2")])
    assert not qr.is_oriented_cycle(two_loops)
    with_isolated = qr.new_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "1")])
    assert not qr.is_oriented_cycle(with_isolated)


def _walk_names(q):
    walk = cycle_walk(q)
    return None if walk is None else [(a.name, tail) for a, tail in walk]


def test_cycle_walk_follows_first_declared_arrow():
    assert _walk_names(qr.jordan_quiver()) == [("a", "1")]
    assert _walk_names(qr.cycle_quiver(2)) == [("a1", "1"), ("a2", "2")]
    # x: 3 -> 1 is the first arrow at vertex 1, so the walk runs against the arrows
    reverse_declared = qr.new_quiver(["1", "2", "3"], [("x", "3", "1"), ("y", "1", "2"), ("z", "2", "3")])
    assert _walk_names(reverse_declared) == [("x", "1"), ("z", "3"), ("y", "2")]
    assert _walk_names(qr.kronecker_quiver()) == [("a", "1"), ("b", "2")]
    assert _walk_names(qr.new_quiver(["1", "2"], [("a", "1", "1"), ("b", "2", "2")])) is None
    assert _walk_names(qr.new_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "1")])) is None
    # a 2-cycle plus a loop has as many arrows as vertices but misses vertex 3
    assert _walk_names(
        qr.new_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "1"), ("c", "1", "1")])
    ) is None
    assert _walk_names(qr.an_quiver(3)) is None


# ------------------------------------------------------- shape recognition


def _path(n):
    return qr.an_quiver(n)


def _star(center_first=False):
    # four leaves into one center: the smallest two-fork shape
    return qr.new_quiver(
        ["1", "2", "3", "4", "5"],
        [("a1", "1", "5"), ("a2", "2", "5"), ("a3", "3", "5"), ("a4", "4", "5")],
    )


def test_family_recognition_paths_and_cycles():
    assert graph_family(_path(1)).label == "A1"
    assert graph_family(_path(4)).label == "A4"
    fam = graph_family(qr.cycle_quiver(4))
    assert fam.family == "A~" and fam.n == 3 and fam.oriented_cycle
    fam2 = graph_family(qr.kronecker_quiver())
    assert fam2.family == "A~" and fam2.n == 1 and not fam2.oriented_cycle
    assert graph_family(qr.jordan_quiver()).label == "A~0"


def test_family_recognition_branched_trees():
    d4 = qr.new_quiver(
        ["1", "2", "3", "4"], [("a", "1", "3"), ("b", "2", "3"), ("c", "3", "4")]
    )
    assert graph_family(d4).label == "D4"
    assert graph_family(_star()).label == "D~4"
    e6 = qr.new_quiver(
        ["1", "2", "3", "4", "5", "6"],
        [("a", "1", "4"), ("b", "2", "3"), ("c", "3", "4"), ("d", "4", "5"), ("e", "5", "6")],
    )
    assert graph_family(e6).label == "E6"


def test_family_recognition_extended():
    for fam in ("d4tilde", "e6tilde", "e7tilde", "e8tilde"):
        r = qr.build_extended_dynkin(fam, [[0.0]])
        label = graph_family(r.quiver).label
        assert label == {"d4tilde": "D~4", "e6tilde": "E6~",
                         "e7tilde": "E7~", "e8tilde": "E8~"}[fam]
    r5 = qr.build_extended_dynkin("d6tilde", [[0.0]])
    assert graph_family(r5.quiver).label == "D~6"


def test_family_other_for_unrecognized():
    y = qr.new_quiver(
        ["1", "2", "3", "4", "5", "6", "7"],
        [("a", "1", "4"), ("b", "2", "4"), ("c", "3", "4"),
         ("d", "4", "5"), ("e", "5", "6"), ("f", "5", "7")],
    )
    assert graph_family(y).family == "other"
    two = qr.new_quiver(["1", "2"], [])
    assert graph_family(two).family == "other"


def _random_quiver(rng):
    """1-8 vertices and 0 to |V|+1 arrows, loops and parallel arrows allowed.

    Half the draws start from a single cycle in random vertex order and random
    directions, perturbed or not, so that cycles are not rare in the sweep.
    """
    nv = rng.randint(1, 8)
    vs = [str(i) for i in range(1, nv + 1)]
    if rng.random() < 0.5:
        ends = [(rng.choice(vs), rng.choice(vs)) for _ in range(rng.randint(0, nv + 1))]
    else:
        ring = rng.sample(vs, nv)
        ends = [(u, w) if rng.random() < 0.5 else (w, u) for u, w in zip(ring, ring[1:] + ring[:1])]
        if rng.random() < 0.5:
            ends[rng.randrange(nv)] = (rng.choice(vs), rng.choice(vs))
        rng.shuffle(ends)
    return qr.new_quiver(vs, [(f"e{i}", u, w) for i, (u, w) in enumerate(ends)])


def _oracle_cycle(q):
    """(single cycle, oriented, vertex kinds) from degrees and a connectivity search."""
    degree = {v: 0 for v in q.vertices}
    out = {v: 0 for v in q.vertices}
    inc = {v: 0 for v in q.vertices}
    adj = {v: set() for v in q.vertices}
    for a in q.arrows:
        degree[a.src] += 1
        degree[a.dst] += 1
        out[a.src] += 1
        inc[a.dst] += 1
        adj[a.src].add(a.dst)
        adj[a.dst].add(a.src)
    seen, todo = {q.vertices[0]}, [q.vertices[0]]
    while todo:
        for w in adj[todo.pop()] - seen:
            seen.add(w)
            todo.append(w)
    single = (len(seen) == len(q.vertices) and len(q.arrows) == len(q.vertices)
              and all(d == 2 for d in degree.values()))
    kinds = {v: "internal" if out[v] and inc[v] else "sink" if inc[v] else "source" if out[v] else "isolated"
             for v in q.vertices}
    return single, single and all(n == 1 for n in out.values()), kinds


def test_cycle_recognition_matches_degree_oracle():
    rng = random.Random(2017)
    cycles = oriented = 0
    for _ in range(2000):
        q = _random_quiver(rng)
        single, one_way, kinds = _oracle_cycle(q)
        assert vertex_kinds(q) == kinds, q
        fam = graph_family(q)
        assert (fam.family == "A~") == single, q
        assert fam.oriented_cycle == one_way, q
        assert qr.is_oriented_cycle(q) == one_way, q
        cycles += single
        oriented += one_way
    # the sweep must reach both answers often enough to mean something
    assert cycles > 200 and oriented > 50


def _random_tree(rng):
    """A uniformly random labelled tree on 1-12 vertices (its Pruefer sequence), randomly oriented."""
    nv = rng.randint(1, 12)
    code = [rng.randrange(nv) for _ in range(nv - 2)]
    free = [1 + code.count(i) for i in range(nv)]  # degree not yet joined
    edges = []
    for p in code:
        leaf = free.index(1)
        edges.append((leaf, p))
        free[leaf] -= 1
        free[p] -= 1
    if nv > 1:
        edges.append(tuple(i for i in range(nv) if free[i] == 1))
    vs = [str(i) for i in range(1, nv + 1)]
    ends = [(vs[u], vs[w]) if rng.random() < 0.5 else (vs[w], vs[u]) for u, w in edges]
    return qr.new_quiver(vs, [(f"e{i}", u, w) for i, (u, w) in enumerate(ends)])


def _coxeter_number(fam):
    if fam.family == "A":
        return fam.n + 1
    if fam.family == "D":
        return 2 * fam.n - 2
    return {"E6": 12, "E7": 18, "E8": 30}[fam.family]


def test_tree_families_match_the_spectral_radius():
    # Smith (1970): a connected graph has spectral radius < 2 iff it is Dynkin,
    # = 2 iff it is extended Dynkin; a Dynkin graph's radius is 2 cos(pi / h)
    rng = random.Random(1970)
    seen = set()
    for _ in range(5000):
        q = _random_tree(rng)
        index = {v: i for i, v in enumerate(q.vertices)}
        adj = np.zeros((len(index), len(index)))
        for a in q.arrows:
            adj[index[a.src], index[a.dst]] = adj[index[a.dst], index[a.src]] = 1.0
        rho = np.linalg.eigvalsh(adj)[-1]
        fam = graph_family(q)
        seen.add(fam.family)
        if fam.family in ("A", "D", "E6", "E7", "E8"):
            assert abs(rho - 2 * math.cos(math.pi / _coxeter_number(fam))) < 1e-9, (fam, q)
        elif fam.family in ("D~", "E6~", "E7~", "E8~"):
            n = fam.n if fam.family == "D~" else int(fam.family[1])
            assert abs(rho - 2) < 1e-9 and len(q.vertices) == n + 1, (fam, q)
        else:
            assert fam.family == "other" and rho > 2 + 1e-9, (fam, q)
    assert seen == {"A", "D", "E6", "E7", "E8", "D~", "E6~", "E7~", "E8~", "other"}


def test_parse_orientation_forms():
    assert parse_orientation(4, ">>>") == [True, True, True]
    assert parse_orientation(4, "<><") == [False, True, False]
    assert parse_orientation(3, None) == [True, True]
    assert parse_orientation(3, [True, False]) == [True, False]
    with pytest.raises(ValueError):
        parse_orientation(3, ">>>")


def test_an_quiver_orientations():
    q = qr.an_quiver(3, "<>")
    pairs = [(a.src, a.dst) for a in q.arrows]
    assert pairs == [("2", "1"), ("2", "3")]


if __name__ == "__main__":
    unittest.main()


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: qr.new_quiver([], []), "at least one vertex"),
        (lambda: qr.an_quiver(0), "n >= 1"),
        (lambda: qr.an_quiver(3, "<x"), "'>' or '<'"),
    ],
    ids=["no-vertex", "empty-path", "bad-orientation-character"],
)
def test_quiver_rejects_malformed_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()
