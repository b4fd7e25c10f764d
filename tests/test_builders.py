"""Tests for the subspace-representation builders."""

import unittest

import numpy as np
import pytest

from quivrep import (
    SubspaceSystem,
    build_an_tilde_noncyclic,
    build_extended_dynkin,
    commutant_basis,
    subspace_inclusion_rep,
)
from quivrep import linalg
from quivrep.builders import _block_injections
from quivrep.errors import PreconditionError
from quivrep.hom import end_basis, is_indecomposable
from quivrep.opmodels import jordan_block
from quivrep.cyclic import cycle_quiver
from quivrep.quiver import an_quiver, jordan_quiver, kronecker_quiver, new_quiver
from quivrep.rep import decompose_with, is_invertible_hom, new_rep

# dim vectors per family for an operator on C^k, in quiver vertex order
DIM_TABLES = {
    "d4tilde": lambda k: {"1": k, "2": k, "3": k, "4": k, "5": 2 * k},
    "d6tilde": lambda k: {"1": k, "2": k, "3": k, "4": k, "5": 2 * k, "6": 2 * k, "7": 2 * k},
    "e6tilde": lambda k: {"0": 3 * k, "1": 2 * k, "2": k, "1'": 2 * k, "2'": k, "1''": 2 * k, "2''": k},
    "e7tilde": lambda k: {
        "0": 4 * k, "1": 3 * k, "2": 2 * k, "3": k, "1'": 3 * k, "2'": 2 * k, "3'": k, "1''": 2 * k,
    },
    "e8tilde": lambda k: {
        "0": 6 * k, "1": 5 * k, "2": 4 * k, "3": 3 * k, "4": 2 * k, "5": k, "1'": 4 * k, "2'": 2 * k, "1''": 3 * k,
    },
}

# quiver name and (name, src, dst) arrow triples per family, in declaration order
ARROW_TABLES = {
    "d4tilde": ("D~4", [("a1", "1", "5"), ("a2", "2", "5"), ("a3", "3", "5"), ("a4", "4", "5")]),
    "d5tilde": ("D~5", [("a1", "1", "5"), ("a2", "2", "5"), ("a3", "3", "6"), ("a4", "4", "6"),
                        ("p5", "5", "6")]),
    "d6tilde": ("D~6", [("a1", "1", "5"), ("a2", "2", "5"), ("a3", "3", "7"), ("a4", "4", "7"),
                        ("p5", "5", "6"), ("p6", "6", "7")]),
    "d7tilde": ("D~7", [("a1", "1", "5"), ("a2", "2", "5"), ("a3", "3", "8"), ("a4", "4", "8"),
                        ("p5", "5", "6"), ("p6", "6", "7"), ("p7", "7", "8")]),
    "d8tilde": ("D~8", [("a1", "1", "5"), ("a2", "2", "5"), ("a3", "3", "9"), ("a4", "4", "9"),
                        ("p5", "5", "6"), ("p6", "6", "7"), ("p7", "7", "8"), ("p8", "8", "9")]),
    "e6tilde": ("E~6", [("a1", "1", "0"), ("a2", "2", "1"), ("a1'", "1'", "0"), ("a2'", "2'", "1'"),
                        ("a1''", "1''", "0"), ("a2''", "2''", "1''")]),
    "e7tilde": ("E~7", [("a1", "1", "0"), ("a2", "2", "1"), ("a3", "3", "2"), ("a1'", "1'", "0"),
                        ("a2'", "2'", "1'"), ("a3'", "3'", "2'"), ("a1''", "1''", "0")]),
    "e8tilde": ("E~8", [("a1", "1", "0"), ("a2", "2", "1"), ("a3", "3", "2"), ("a4", "4", "3"),
                        ("a5", "5", "4"), ("a1'", "1'", "0"), ("a2'", "2'", "1'"), ("a1''", "1''", "0")]),
}


class ExtendedFamilyShapes(unittest.TestCase):
    def test_names_and_arrows(self):
        for family, (name, arrows) in ARROW_TABLES.items():
            q = build_extended_dynkin(family, np.eye(1)).quiver
            self.assertEqual(q.name, name, family)
            self.assertEqual([(a.name, a.src, a.dst) for a in q.arrows], arrows, family)

    def test_dim_vectors(self):
        for family, table in DIM_TABLES.items():
            for k in (1, 2):
                rep = build_extended_dynkin(family, jordan_block(k))
                self.assertEqual(dict(zip(rep.quiver.vertices, rep.dim_vector)), table(k), family)

    def test_every_arrow_is_a_coordinate_inclusion(self):
        # arrow matrices J_T* J_S of honest inclusions are themselves isometries
        for family in DIM_TABLES:
            rep = build_extended_dynkin(family, jordan_block(2))
            for arr in rep.quiver.arrows:
                m = rep.mats[arr.name]
                self.assertLess(np.linalg.norm(m.conj().T @ m - np.eye(m.shape[1])), 1e-10, arr.name)

    def test_rejections(self):
        with self.assertRaises(PreconditionError):
            build_extended_dynkin("d3tilde", np.eye(1))
        with self.assertRaises(ValueError):
            build_extended_dynkin("e9tilde", np.eye(1))
        with self.assertRaises(ValueError):
            build_extended_dynkin("d4tilde", np.eye(2, 3))
        with self.assertRaises(ValueError):
            build_extended_dynkin("d4tilde", np.array([[np.nan]]))


class EndomorphismsMatchCommutants(unittest.TestCase):
    """End of the built representation is the commutant of the operator."""

    def test_jordan_blocks_are_indecomposable(self):
        for family in ("d4tilde", "d5tilde", "e6tilde", "e7tilde", "e8tilde"):
            for k in (1, 2, 3):
                rep = build_extended_dynkin(family, jordan_block(k))
                eb = end_basis(rep)
                self.assertEqual(eb.dim, k, f"{family}, jordan k={k}")
                self.assertEqual(len(commutant_basis(jordan_block(k))), eb.dim)
                self.assertLess(eb.max_residual, 1e-8)
                self.assertTrue(is_indecomposable(rep, seed=1).indecomposable, family)

    def test_split_operator_gives_decomposable_rep(self):
        s = np.diag([1.0, 2.0])
        for family in ("d4tilde", "e6tilde", "e7tilde", "e8tilde"):
            rep = build_extended_dynkin(family, s)
            verdict = is_indecomposable(rep, seed=3)
            self.assertEqual(verdict.kind, "decomposable", family)
            first, second, witness = decompose_with(rep, verdict.witness)
            self.assertTrue(is_invertible_hom(witness))
            self.assertEqual(first.total_dim + second.total_dim, rep.total_dim)
            # the split mirrors the eigenspace split of s: two copies of the k=1 build
            half = build_extended_dynkin(family, np.eye(1))
            self.assertEqual(sorted(first.dim_vector), sorted(half.dim_vector), family)
            self.assertEqual(sorted(second.dim_vector), sorted(half.dim_vector), family)


class NonCyclicCycleBuilder(unittest.TestCase):
    def test_kronecker_pair(self):
        built = build_an_tilde_noncyclic(kronecker_quiver(), np.eye(2), jordan_block(2))
        self.assertNotEqual(built.arrow_a, built.arrow_b)
        self.assertEqual(set(built.rep.dims.values()), {2})
        self.assertEqual(end_basis(built.rep).dim, 2)

    def test_identity_pair_on_longer_cycle(self):
        # triangle with a source at 1 and a sink at 2: both senses present
        q = new_quiver(["1", "2", "3"], [("a1", "1", "2"), ("a2", "1", "3"), ("a3", "3", "2")])
        built = build_an_tilde_noncyclic(q, np.eye(1), np.eye(1))
        self.assertEqual(built.rep.total_dim, 3)
        ident_arrows = [n for n, m in built.rep.mats.items() if n not in (built.arrow_a, built.arrow_b)]
        for name in ident_arrows:
            self.assertTrue(np.array_equal(built.rep.mats[name], np.eye(1, dtype=complex)))
        # same commutant as the size-1 Kronecker pair (I, I): all of C
        self.assertEqual(end_basis(built.rep).dim, 1)

    def _rejection(self, q):
        with self.assertRaises(PreconditionError) as caught:
            build_an_tilde_noncyclic(q, np.eye(1), np.eye(1))
        return str(caught.exception)

    def test_oriented_cycle_rejected(self):
        for q in (cycle_quiver(3), jordan_quiver()):
            self.assertEqual(
                self._rejection(q),
                "the orientation is a directed cycle; this construction needs both senses present",
            )

    def test_non_cycle_graph_rejected(self):
        # a triangle with a pendant vertex: as many arrows as vertices, but no single cycle
        pendant = new_quiver(
            ["1", "2", "3", "4"], [("a", "1", "2"), ("b", "3", "2"), ("c", "1", "3"), ("d", "3", "4")]
        )
        for q, label in ((an_quiver(3, "><"), "A3"), (pendant, "other")):
            self.assertEqual(
                self._rejection(q), f"the underlying graph must be a single cycle; got {label}"
            )

    def test_shape_mismatch_rejected(self):
        with self.assertRaises(ValueError):
            build_an_tilde_noncyclic(kronecker_quiver(), np.eye(2), np.eye(3))


class DirectSubspaceSpecs(unittest.TestCase):
    def _star_quiver(self):
        return new_quiver(["1", "2", "3"], [("a1", "1", "3"), ("a2", "2", "3")], name="star")

    def test_all_ambient_gives_identity_matrices(self):
        eye = np.eye(3, dtype=complex)
        rep = subspace_inclusion_rep(
            SubspaceSystem(3, [eye], ("H",)),
            self._star_quiver(),
            {"1": "H", "2": "H", "3": "H"},
        )
        for name in ("a1", "a2"):
            self.assertTrue(np.array_equal(rep.mats[name], eye))

    def test_proper_inclusion_matrices_are_coordinates(self):
        eye = np.eye(2, dtype=complex)
        rep = subspace_inclusion_rep(
            SubspaceSystem(2, [eye[:, :1], eye[:, 1:], eye], ("X", "Y", "H")),
            self._star_quiver(),
            {"1": "X", "2": "Y", "3": "H"},
        )
        self.assertEqual(rep.dims, {"1": 1, "2": 1, "3": 2})
        self.assertTrue(np.array_equal(rep.mats["a1"], eye[:, :1]))
        self.assertTrue(np.array_equal(rep.mats["a2"], eye[:, 1:]))

    def test_non_nested_subspaces_rejected(self):
        eye = np.eye(2, dtype=complex)
        with self.assertRaises(PreconditionError):
            subspace_inclusion_rep(
                SubspaceSystem(2, [eye[:, :1], eye[:, 1:]], ("X", "Y")),
                new_quiver(["1", "2"], [("a", "1", "2")]),
                {"1": "X", "2": "Y"},
            )

    def test_non_orthonormal_subspace_rejected(self):
        bad = np.array([[1.0], [1.0]], dtype=complex)
        with self.assertRaises(ValueError):
            SubspaceSystem(2, [bad, np.eye(2, dtype=complex)], ("X", "H"))

    def test_four_subspace_spec_of_jordan_pair(self):
        # the star representation on E1..E4 of the pair (J_2, I) has End = commutant
        from quivrep.opmodels import OperatorPair, four_subspace_from_pair

        sys4 = four_subspace_from_pair(OperatorPair(jordan_block(2), np.eye(2, dtype=complex)))
        q = new_quiver(
            ["1", "2", "3", "4", "5"],
            [(f"a{i}", str(i), "5") for i in range(1, 5)],
            name="R4",
        )
        system = SubspaceSystem(4, sys4.injections + (np.eye(4, dtype=complex),), sys4.labels + ("H",))
        rep = subspace_inclusion_rep(system, q, {"1": "E1", "2": "E2", "3": "E3", "4": "E4", "5": "H"})
        self.assertEqual(end_basis(rep).dim, 2)


def test_e8tilde_smallest_instance():
    rep = build_extended_dynkin("e8tilde", np.eye(1))
    assert dict(zip(rep.quiver.vertices, rep.dim_vector)) == DIM_TABLES["e8tilde"](1)
    assert end_basis(rep).dim == 1
    # the fourth step of the long arm is two-dimensional and mixes both branches
    assert rep.dims["4"] == 2


def test_random_conjugate_operator_keeps_end_dim():
    rng = np.random.default_rng(8)
    for family in ("d4tilde", "e6tilde"):
        k = 2
        s = jordan_block(k)
        g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        g += 3 * np.eye(k)  # keep it comfortably invertible
        conj = np.linalg.solve(g, s @ g)
        a = end_basis(build_extended_dynkin(family, s))
        b = end_basis(build_extended_dynkin(family, conj))
        assert a.dim == b.dim == k


def test_block_injections_are_one_qr_each():
    # injections of one shape share one stacked QR; each comes out as its own QR would
    k = 3
    blocks = {"I": np.eye(k, dtype=complex), "S": jordan_block(k) + 2 * np.eye(k)}
    columns = [[{0: "I"}, {2: "I"}], [{1: "I", 2: "S"}], [{2: "I"}, {0: "S"}],
               [{0: "I"}, {1: "I", 2: "I"}], [{0: "I", 1: "I"}], [{1: "I"}]]
    for cols, got in zip(columns, _block_injections(3, k, columns, blocks)):
        j = np.zeros((3 * k, len(cols) * k), dtype=complex)
        for g, spec in enumerate(cols):
            for row, name in spec.items():
                j[row * k : (row + 1) * k, g * k : (g + 1) * k] = blocks[name]
        assert np.array_equal(got, linalg.qr_orthonormalize(j))


if __name__ == "__main__":
    unittest.main()


@pytest.mark.parametrize(
    "labels, match",
    [({}, "no assigned subspace"), ({"1": "F"}, "unknown subspace")],
    ids=["vertex-without-subspace", "unknown-subspace-label"],
)
def test_subspace_inclusion_rep_rejects_bad_labels(labels, match):
    system = SubspaceSystem(2, [np.eye(2)], ("E",))
    with pytest.raises(ValueError, match=match):
        subspace_inclusion_rep(system, new_quiver(["1"], []), labels)
