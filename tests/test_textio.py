"""Round-trip and error tests for the plain-text quiver/representation format."""

import numpy as np
import pytest

from quivrep import format_matrix, format_quiver, format_rep, parse_matrix, parse_quiver, parse_rep
from quivrep.errors import ParseError
from quivrep.hom import hom_basis
from quivrep.quiver import jordan_quiver, kronecker_quiver, new_quiver
from quivrep.rep import new_rep
from quivrep.textio import fmt_complex, fmt_real, format_hom, parse_complex

from conftest import random_rep


def test_fmt_real_and_complex():
    assert fmt_real(2.0) == "2"
    assert fmt_real(-3.0) == "-3"
    assert fmt_real(0.5) == "0.5"
    assert fmt_real(1 / 3) == repr(1 / 3)
    assert fmt_complex(2.0) == "2"
    assert fmt_complex(2 + 1j) == "2+1j"
    assert fmt_complex(2 - 0.5j) == "2-0.5j"
    assert fmt_complex(1.5j) == "1.5j"
    assert fmt_complex(0) == "0"


def test_parse_complex_round_trip():
    for z in [0, 1, -2.5, 1j, -0.75j, 3 + 4j, 2 - 0.125j]:
        assert parse_complex(fmt_complex(z)) == complex(z)
    with pytest.raises(ParseError):
        parse_complex("")
    with pytest.raises(ParseError):
        parse_complex("one+2j")


def test_matrix_round_trip():
    rng = np.random.default_rng(2)
    for shape in [(1, 1), (2, 3), (3, 1), (0, 0)]:
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        again = parse_matrix(format_matrix(m))
        assert again.shape == m.shape
        assert np.array_equal(again, m)  # repr round-trips doubles exactly


def test_roundoff_imaginary_parts_print_as_zero():
    # within 64 eps of the largest entry: roundoff, printed as a real number
    assert format_matrix([[0.86 + 1.1e-18j, 2j], [0.5 - 1.5e-17j, 0]]) == "[[0.86, 2j]; [0.5, 0]]"
    # relative to that entry, not to 1: a small matrix keeps its imaginary parts
    assert format_matrix([[1e-18j, 1e-18 + 1e-20j]]) == "[[1e-18j, 1e-18+1e-20j]]"
    assert format_matrix(np.zeros((0, 2))) == "[]"


def test_parse_matrix_shapes_and_errors():
    assert parse_matrix("[[1, 2]; [3, 4]]").shape == (2, 2)
    assert parse_matrix("[[]]").shape == (1, 0)
    assert parse_matrix("[]").shape == (0, 0)
    for bad in ["1, 2", "[[1, 2]; [3]]", "[[1; 2]", "[[1] [2]]", "[[oops]]"]:
        with pytest.raises(ParseError):
            parse_matrix(bad)


def test_quiver_round_trip():
    q = new_quiver(
        ["1", "2", "3"],
        [("a", "1", "2"), ("b", "1", "2"), ("loop", "3", "3")],
        name="demo",
    )
    again = parse_quiver(format_quiver(q))
    assert again == q


def test_rep_round_trip_exact():
    rng = np.random.default_rng(9)
    for q in [kronecker_quiver(), jordan_quiver()]:
        for _ in range(5):
            r = random_rep(q, {v: int(rng.integers(0, 3)) for v in q.vertices}, rng)
            again = parse_rep(format_rep(r))
            assert again.quiver == r.quiver
            assert again.dims == r.dims
            for a in r.quiver.arrows:
                assert np.array_equal(again.mats[a.name], r.mats[a.name])


def test_rep_with_zero_vertex_needs_no_mat_line():
    q = kronecker_quiver()
    text = format_rep(new_rep(q, {"1": 0, "2": 2}, {}))
    assert "mat" not in text
    r = parse_rep(text)
    assert r.mats["a"].shape == (2, 0)


def test_comments_and_blank_lines_ignored():
    text = """
    # a two-vertex example
    quiver demo
    vertex 1   # the source
    vertex 2
    arrow a: 1 -> 2
    dim 1 = 1
    dim 2 = 1

    mat a = [[2]]  # scalar
    """
    r = parse_rep(text)
    assert r.quiver.name == "demo"
    assert r.mats["a"][0, 0] == 2.0


def test_parse_quiver_ignores_dims_and_mats():
    text = "quiver q\nvertex 1\ndim 1 = 7\n"
    q = parse_quiver(text)
    assert q.vertices == ("1",)


def test_scan_errors_carry_line_numbers():
    cases = [
        ("quiver a\nquiver b\n", "line 2"),
        ("vertex\n", "line 1"),
        ("arrow a 1 -> 2\n", "line 1"),
        ("dim 1 = -2\n", "line 1"),
        ("dim 1 = x\n", "line 1"),
        ("spam eggs\n", "line 1"),
        ("vertex 1\ndim 1 = 1\ndim 1 = 2\n", "line 3"),
        ("vertex 1\narrow a: 1 -> 1\nmat a = [[1]]\nmat a = [[2]]\n", "line 4"),
        ("vertex 1\narrow a: 1 -> 1\nmat a = [[no]]\n", "line 3"),
    ]
    for text, fragment in cases:
        with pytest.raises(ParseError) as err:
            parse_rep(text)
        assert fragment in str(err.value), text


def test_semantic_errors_from_constructor():
    with pytest.raises(ParseError):
        parse_rep("vertex 1\ndim 2 = 1\n")  # unknown vertex
    with pytest.raises(ParseError):
        parse_rep("vertex 1\nmat a = [[1]]\n")  # unknown arrow
    with pytest.raises(ParseError):
        # both dims positive but the mat line is missing
        parse_rep("vertex 1\nvertex 2\narrow a: 1 -> 2\ndim 1 = 1\ndim 2 = 1\n")
    with pytest.raises(ParseError):
        # matrix shape disagrees with the dims
        parse_rep("vertex 1\nvertex 2\narrow a: 1 -> 2\ndim 1 = 1\ndim 2 = 1\nmat a = [[1, 2]]\n")
    with pytest.raises(ParseError):
        parse_quiver("vertex 1\nvertex 1\n")  # duplicate vertex


def test_format_hom_lists_nonempty_vertices():
    q = kronecker_quiver()
    r1 = new_rep(q, {"1": 1, "2": 1}, {"a": [[1.0]], "b": [[0.0]]})
    basis = hom_basis(r1, r1)
    assert basis.dim == 1
    text = format_hom(basis.basis[0])
    lines = text.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("hom 1 = [[") and lines[1].startswith("hom 2 = [[")


@pytest.mark.parametrize(
    "text, match",
    [
        ("quiver\n", "'quiver' line needs a name"),
        ("quiver Q\nvertex 1\nmat a [[1]]\n", "expected 'mat <arrow> = "),
        ("quiver Q\nvertex 1\nmat a b = [[1]]\n", "single arrow identifier"),
    ],
    ids=["nameless-quiver", "mat-without-equals", "mat-with-two-ids"],
)
def test_scan_rejects_malformed_lines(text, match):
    with pytest.raises(ParseError, match=match):
        parse_rep(text)
