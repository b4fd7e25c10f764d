"""Plain-text format for quivers and representations.

One declaration per line, '#' starts a comment:

    quiver <name>
    vertex <id>
    arrow <id>: <src> -> <dst>
    dim <vertex> = <int>
    mat <arrow> = [[re+imj, ...]; ...]

Rows of a matrix literal are ';'-separated, entries ','-separated; a complex
entry reads `a+bj` / `a-bj` (plain decimal, as Python's complex() accepts).
A `mat` line is required exactly when both endpoint dimensions are positive;
arrows touching a zero-dimensional vertex get their empty matrix implicitly.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import ParseError
from .quiver import Quiver, new_quiver
from .rep import Hom, Rep, new_rep

_ARROW_RE = re.compile(r"arrow\s+(\S+)\s*:\s*(\S+)\s*->\s*(\S+)$")
_DIM_RE = re.compile(r"dim\s+(\S+)\s*=\s*(\d+)$")


def fmt_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(float(x))


def fmt_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0:
        return fmt_real(z.real)
    if z.real == 0:
        return fmt_real(z.imag) + "j"
    sign = "+" if z.imag > 0 else "-"
    return f"{fmt_real(z.real)}{sign}{fmt_real(abs(z.imag))}j"


def parse_complex(token: str) -> complex:
    token = token.strip().replace(" ", "")
    if not token:
        raise ParseError("empty matrix entry")
    try:
        return complex(token)
    except ValueError:
        raise ParseError(f"bad complex literal {token!r}") from None


def parse_matrix(text: str) -> np.ndarray:
    """Parse `[[a, b]; [c, d]]` into a complex array."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(f"matrix literal must be bracketed, got {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return np.zeros((0, 0), dtype=complex)
    rows = []
    for row_text in inner.split(";"):
        row_text = row_text.strip()
        if not (row_text.startswith("[") and row_text.endswith("]")):
            raise ParseError(f"matrix row must be bracketed, got {row_text!r}")
        body = row_text[1:-1].strip()
        rows.append([parse_complex(t) for t in body.split(",")] if body else [])
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ParseError("matrix rows have unequal lengths")
    return np.array(rows, dtype=complex).reshape(len(rows), width)


def format_matrix(m) -> str:
    """`[[a, b]; [c, d]]`; an imaginary part within 64 eps max|m| is roundoff and prints as 0."""
    m = np.asarray(m, dtype=complex)
    if m.size:
        m = np.where(np.abs(m.imag) <= 64 * np.finfo(float).eps * np.abs(m).max(), m.real + 0j, m)
    rows = ["[" + ", ".join(fmt_complex(z) for z in row) + "]" for row in m]
    return "[" + "; ".join(rows) + "]"


def _scan(text: str):
    name = None
    vertices: list[str] = []
    arrows: list[tuple[str, str, str]] = []
    dims: dict[str, int] = {}
    mats: dict[str, np.ndarray] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key = line.split(None, 1)[0]
        try:
            if key == "quiver":
                if name is not None:
                    raise ParseError("second 'quiver' line")
                name = line[len("quiver") :].strip()
                if not name:
                    raise ParseError("'quiver' line needs a name")
            elif key == "vertex":
                v = line[len("vertex") :].strip()
                if not v or len(v.split()) != 1:
                    raise ParseError("'vertex' line needs a single identifier")
                vertices.append(v)
            elif key == "arrow":
                m = _ARROW_RE.fullmatch(line)
                if not m:
                    raise ParseError("expected 'arrow <id>: <src> -> <dst>'")
                arrows.append((m.group(1), m.group(2), m.group(3)))
            elif key == "dim":
                m = _DIM_RE.fullmatch(line)
                if not m:
                    raise ParseError("expected 'dim <vertex> = <int>'")
                if m.group(1) in dims:
                    raise ParseError(f"duplicate dim for vertex {m.group(1)!r}")
                dims[m.group(1)] = int(m.group(2))
            elif key == "mat":
                rest = line[len("mat") :].strip()
                if "=" not in rest:
                    raise ParseError("expected 'mat <arrow> = [[...]; ...]'")
                arrow_id, literal = rest.split("=", 1)
                arrow_id = arrow_id.strip()
                if not arrow_id or len(arrow_id.split()) != 1:
                    raise ParseError("'mat' line needs a single arrow identifier")
                if arrow_id in mats:
                    raise ParseError(f"duplicate mat for arrow {arrow_id!r}")
                mats[arrow_id] = parse_matrix(literal)
            else:
                raise ParseError(f"unknown declaration {key!r}")
        except ParseError as e:
            raise ParseError(f"line {lineno}: {e}") from None
    return name, vertices, arrows, dims, mats


def parse_quiver(text: str) -> Quiver:
    """Parse the quiver declarations; dim/mat lines, if present, are ignored."""
    name, vertices, arrows, _, _ = _scan(text)
    try:
        return new_quiver(vertices, arrows, name=name if name is not None else "Q")
    except ValueError as e:
        raise ParseError(str(e)) from None


def parse_rep(text: str) -> Rep:
    name, vertices, arrows, dims, mats = _scan(text)
    try:
        q = new_quiver(vertices, arrows, name=name if name is not None else "Q")
        return new_rep(q, dims, mats)
    except ValueError as e:
        raise ParseError(str(e)) from None


def format_quiver(q: Quiver) -> str:
    lines = [f"quiver {q.name}"]
    lines += [f"vertex {v}" for v in q.vertices]
    lines += [f"arrow {a.name}: {a.src} -> {a.dst}" for a in q.arrows]
    return "\n".join(lines) + "\n"


def format_rep(r: Rep) -> str:
    lines = [format_quiver(r.quiver).rstrip("\n")]
    lines += [f"dim {v} = {r.dims[v]}" for v in r.quiver.vertices]
    for a in r.quiver.arrows:
        if r.dims[a.src] > 0 and r.dims[a.dst] > 0:
            lines.append(f"mat {a.name} = {format_matrix(r.mats[a.name])}")
    return "\n".join(lines) + "\n"


def format_hom(h: Hom) -> str:
    """Vertex-indexed matrix family in the same matrix-literal syntax."""
    lines = []
    for v in h.source.quiver.vertices:
        m = h.mats[v]
        if m.size:
            lines.append(f"hom {v} = {format_matrix(m)}")
    return "\n".join(lines) + ("\n" if lines else "")
