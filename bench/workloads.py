"""The benchmark's four workloads: inputs, the calls a user makes, and the checks.

A workload is a fixed list of problem shapes; the seed (and the pass number)
only draws the numbers inside them, so every seed costs the same work.  A pass
runs every shape once.  `run` makes the program's calls and is timed; `check`
compares the outputs with `reference` and is not timed.  Checks that need
sympy are deferred to `finish`, after the memory peak has been read, so that
importing sympy does not count as the program's memory.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass, field

import numpy as np

import reference as ref

RESIDUAL_TOL = ref.RESIDUAL_TOL


@dataclass
class Problem:
    pid: int
    label: str
    data: dict = field(default_factory=dict)
    # a known fault of the program makes this operation fail on every pass
    kept_failure: bool = False


def _rng(seed: int, pass_index: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, pass_index, salt])


def _arrows(r) -> dict:
    """A quivrep Rep as reference data: arrow name -> (src, dst, matrix)."""
    return {a.name: (a.src, a.dst, r.mats[a.name]) for a in r.quiver.arrows}


def _witness_errors(arrows, mats, blocks) -> list[str]:
    """An idempotent witness must satisfy e^2 = e and intertwine the representation."""
    errs = []
    if ref.idempotent_defect(blocks) > RESIDUAL_TOL:
        errs.append("witness is not idempotent")
    if ref.intertwining_residual(arrows, mats, mats, blocks) > RESIDUAL_TOL:
        errs.append("witness does not intertwine")
    return errs


def _complex_in_annulus(rng, lo: float, hi: float) -> complex:
    return complex(rng.uniform(lo, hi) * np.exp(2j * np.pi * rng.uniform()))


def _random_mats(rng, arrows, dims) -> dict:
    out = {}
    for name, (src, dst) in arrows.items():
        shape = (dims[dst], dims[src])
        out[name] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return out


# ====================================================================== dynkin-end

DYNKIN_KINDS = ("nilpotent", "shifted", "diagonal", "two-block")

# Two-block operators J_p + J_(k-p) take p = k // 2, so k <= 5.  J_3 + J_3 is
# left out: the idempotent search misses its splitting on every draw for
# d4tilde and d6tilde but not for e6tilde (24 of 25), so with drawn eigenvalues
# it cannot be counted steadily, and the workload's one kept failure is the
# rescaled arrow below (see CHANGES.md).
DYNKIN_GRID = (
    [("d4tilde", k, kind) for k in range(2, 7) for kind in DYNKIN_KINDS[:3]]
    + [("d4tilde", k, "two-block") for k in (2, 3, 4, 5)]
    + [("d6tilde", k, kind) for k in (3, 5) for kind in DYNKIN_KINDS[:3]]
    + [("d6tilde", k, "two-block") for k in (3, 5)]
    + [("e6tilde", k, kind) for k in (2, 3, 4) for kind in DYNKIN_KINDS]
    + [("e7tilde", k, kind) for k in (2, 3) for kind in DYNKIN_KINDS]
    + [("e8tilde", 2, kind) for kind in DYNKIN_KINDS]
    + [("e8tilde", 3, "nilpotent")]
)


def dynkin_operator(kind: str, k: int, rng) -> tuple[np.ndarray, dict]:
    """An operator on C^k of the given kind and its Jordan structure {eigenvalue: sizes}."""
    if kind == "nilpotent":
        return ref.jordan(k), {0j: [k]}
    if kind == "shifted":
        lam = _complex_in_annulus(rng, 0.5, 2.0)
        return ref.jordan(k, lam), {lam: [k]}
    if kind == "diagonal":
        # distinct angles keep the eigenvalues well apart
        turn = rng.uniform()
        eigs = [rng.uniform(1.0, 2.0) * np.exp(2j * np.pi * (turn + j) / k) for j in range(k)]
        return np.diag(np.array(eigs, dtype=complex)), {complex(e): [1] for e in eigs}
    p = k // 2
    lam1 = _complex_in_annulus(rng, 0.0, 1.0)
    lam2 = lam1 + _complex_in_annulus(rng, 1.0, 2.0)
    s = ref.block_diag([ref.jordan(p, lam1), ref.jordan(k - p, lam2)])
    return s, {lam1: [p], lam2: [k - p]}


class DynkinEnd:
    """build_extended_dynkin -> end_basis -> is_indecomposable -> decompose_with."""

    def __init__(self, q, seed: int):
        self.q, self.seed = q, seed

    def inputs(self, pass_index: int) -> list[Problem]:
        rng = _rng(self.seed, pass_index, 1)
        problems = []
        for family, k, kind in DYNKIN_GRID:
            s, structure = dynkin_operator(kind, k, rng)
            problems.append(Problem(len(problems), f"{family}/{kind}/k={k}",
                                    {"family": family, "s": s, "structure": structure}))
        # An arrow of a tree-quiver representation rescaled: isomorphic to the
        # unscaled one, so End must stay 3-dimensional and local.
        problems.append(Problem(len(problems), "d4tilde/nilpotent/k=3/a1*1e-10",
                                {"family": "d4tilde", "s": ref.jordan(3), "structure": {0j: [3]},
                                 "scale_a1": 1e-10}, kept_failure=True))
        return problems

    def run(self, p: Problem):
        q = self.q
        r = q.builders.build_extended_dynkin(p.data["family"], p.data["s"])
        if "scale_a1" in p.data:
            mats = dict(r.mats)
            mats["a1"] = mats["a1"] * p.data["scale_a1"]
            r = q.rep.new_rep(r.quiver, r.dims, mats)
        eb = q.hom.end_basis(r)
        verdict = q.hom.is_indecomposable(r)
        parts = q.rep.decompose_with(r, verdict.witness) if verdict.witness is not None else None
        return r, eb, verdict, parts

    def check(self, p: Problem, out, key) -> list[str]:
        r, eb, verdict, parts = out
        structure = p.data["structure"]
        errs = []
        want_dim = ref.commutant_dim(structure)
        if eb.dim != want_dim:
            errs.append(f"End dimension {eb.dim}, commutant dimension {want_dim}")
        want_kind = "indecomposable" if ref.is_single_block(structure) else "decomposable"
        if verdict.kind != want_kind:
            errs.append(f"verdict {verdict.kind}, expected {want_kind}")
        if verdict.witness is not None:
            errs += _witness_errors(_arrows(r), r.mats, verdict.witness.mats)
        if parts is not None:
            for v in r.quiver.vertices:
                if parts.first.dims[v] + parts.second.dims[v] != r.dims[v]:
                    errs.append(f"summand dimensions do not add up at vertex {v}")
            if parts.first.is_zero or parts.second.is_zero:
                errs.append("a summand is zero")
        return errs

    def finish(self) -> dict:
        return {}


# ====================================================================== four-subspace


def _exact_checks(deferred: list, cache: dict) -> dict:
    """Compare (End of the pair, End of the system) with sympy's exact ranks.

    `deferred` holds (check key, (lam spec, w spec, n), dims from the program)
    for shift-rank-one pairs; `cache` keeps exact answers across passes.
    """
    errs: dict = {}
    for key, spec, got in deferred:
        if spec not in cache:
            lam, w, n = spec
            cache[spec] = ref.shift_rank_one_end_dims_exact([ref.seq_exact(lam, i) for i in range(1, n + 1)],
                                                            [ref.seq_exact(w, i) for i in range(1, n + 1)])
        if tuple(got) != cache[spec]:
            errs.setdefault(key, []).append(f"End dimensions (pair, system) {tuple(got)}, exact {cache[spec]}")
    deferred.clear()
    return errs


FOUR_GRID = (
    [("shift-rank-one", "lam-reciprocal", n) for n in (4, 6, 9, 12)]
    + [("shift-rank-one", "w-reciprocal", n) for n in (5, 8)]
    + [("bilateral", "", m) for m in (2, 3, 4, 5)]
    + [("graph", "", k) for k in (4, 7, 10)]
)
# sympy ranks are exact but slow; they check the rational pairs up to this size
EXACT_MAX_N = 5


class FourSubspace:
    """four_subspace_from_pair -> subspace_system_end -> End of the system's
    representation -> phi_map -> density_criterion."""

    def __init__(self, q, seed: int):
        self.q, self.seed = q, seed
        self._deferred: list = []
        self._exact_cache: dict = {}

    def inputs(self, pass_index: int) -> list[Problem]:
        rng = _rng(self.seed, pass_index, 2)
        problems = []
        for kind, variant, n in FOUR_GRID:
            d = {"kind": kind, "n": n}
            if kind == "shift-rank-one":
                omp = ("one-minus-pow", int(rng.choice([2, 3, 4, 5])))
                lam, w = (("reciprocal",), omp) if variant == "lam-reciprocal" else (omp, ("reciprocal",))
                d.update(lam=lam, w=w)
                d["a"], d["b"] = ref.shift_rank_one([ref.seq_value(lam, i) for i in range(1, n + 1)],
                                                    [ref.seq_value(w, i) for i in range(1, n + 1)])
            elif kind == "bilateral":
                parities = ("even", "odd") if rng.uniform() < 0.5 else ("odd", "even")
                lam, w = ("exp-neg-pow", 1.1, parities[0]), ("exp-neg-pow", 1.1, parities[1])
                d.update(lam=lam, w=w)
                offsets = range(-n, n + 1)
                d["a"], d["b"] = ref.bilateral([ref.seq_value(lam, i) for i in offsets],
                                               [ref.seq_value(w, i) for i in offsets])
            else:
                lam = float(rng.uniform(-2.0, 2.0))
                d["a"], d["b"] = np.eye(n, dtype=complex), ref.jordan(n, lam)
                d["pair"] = self.q.opmodels.OperatorPair(d["a"].copy(), d["b"].copy(), tag="graph")
            problems.append(Problem(len(problems), f"{kind}/{variant or 'n'}={n}", d))
        return problems

    def run(self, p: Problem):
        q, d = self.q, p.data
        if d["kind"] == "shift-rank-one":
            pair = q.opmodels.kron_pair_shift_rank_one(ref.seq_literal(d["lam"]), ref.seq_literal(d["w"]), d["n"])
        elif d["kind"] == "bilateral":
            pair = q.opmodels.kron_pair_bilateral(ref.seq_literal(d["lam"]), ref.seq_literal(d["w"]), d["n"])
        else:
            pair = d["pair"]
        system = q.opmodels.four_subspace_from_pair(pair)
        sys_end = q.opmodels.subspace_system_end(system)
        system_rep = q.opmodels.subspace_system_rep(system)
        rep_end = q.hom.end_basis(system_rep)
        phi = q.opmodels.phi_map(pair)
        density = None
        if "lam" in d:
            density = q.opmodels.density_criterion(ref.seq_literal(d["lam"]), ref.seq_literal(d["w"]))
        return pair, system_rep, sys_end, rep_end, phi, density

    def check(self, p: Problem, out, key) -> list[str]:
        pair, system_rep, sys_end, rep_end, phi, density = out
        d = p.data
        a, b = d["a"], d["b"]
        errs = []
        if not (np.allclose(pair.a, a, rtol=0, atol=1e-12) and np.allclose(pair.b, b, rtol=0, atol=1e-12)):
            errs.append("the pair's matrices differ from the reference construction")
        if not sys_end.dim == rep_end.dim == phi.system_end_dim:
            errs.append(f"End dimensions disagree: system {sys_end.dim}, rep {rep_end.dim}, phi {phi.system_end_dim}")
        if d["kind"] == "graph" and sys_end.dim != d["n"]:
            errs.append(f"graph pair (I, J_k): End dimension {sys_end.dim}, expected k = {d['n']}")
        projectors = ref.four_subspace_projectors(a, b)
        worst = max((ref.membership_residual(t, projectors) for t in sys_end.basis), default=0.0)
        if worst > RESIDUAL_TOL:
            errs.append(f"system End basis membership residual {worst:.2e}")
        arrows = _arrows(system_rep)
        worst = max((ref.intertwining_residual(arrows, system_rep.mats, system_rep.mats, h.mats)
                     for h in rep_end.basis), default=0.0)
        if worst > RESIDUAL_TOL:
            errs.append(f"representation End basis residual {worst:.2e}")
        want_ker = a.shape[0] * ref.joint_kernel_dim(a, b)
        if phi.ker_dim != want_ker or phi.expected_ker_dim != want_ker:
            errs.append(f"phi kernel {phi.ker_dim} (expected field {phi.expected_ker_dim}), reference {want_ker}")
        if phi.end_dim - phi.ker_dim != sys_end.dim or not phi.surjective:
            errs.append("phi is not onto End of the system")
        if density is not None and density.dense != ref.dense(d["lam"], d["w"]):
            errs.append(f"density verdict {density.dense}, closed form {ref.dense(d['lam'], d['w'])}")
        if d["kind"] == "shift-rank-one" and d["n"] <= EXACT_MAX_N:
            self._deferred.append((key, (d["lam"], d["w"], d["n"]), (phi.end_dim, sys_end.dim)))
        return errs

    def finish(self) -> dict:
        return _exact_checks(self._deferred, self._exact_cache)


# ====================================================================== reflect-small

KRONECKER = {"a": ("1", "2"), "b": ("1", "2")}
STAR = {f"a{i}": (str(i), "5") for i in range(1, 5)}


def _an_arrows(n: int, orientation: str) -> dict:
    return {f"e{i}": ((str(i), str(i + 1)) if c == ">" else (str(i + 1), str(i)))
            for i, c in enumerate(orientation, start=1)}


# Dimension vectors, fixed for every seed.  Stars and A_n were picked with a
# generic End of dimension 3-6 (plus six stars at 9-13), so that problem costs
# gather around the median instead of spreading over three decades.
STAR_DIMS = (
    "00221", "02001", "02022", "03124", "03223", "03224", "11003", "11023", "11211", "11234",
    "11323", "12034", "12424", "13013", "13134", "13323", "20334", "21032", "22034", "22134",
    "23024", "23233", "30122", "31203", "32114", "32133", "33134", "42124",
    "04101", "11142", "23132", "30423", "32001", "44414",
)
AN_DIMS = (
    (">>", "321"), ("<>", "122"), ("><", "231"), ("<<", "121"), (">>>", "2322"), ("<><", "2211"),
    ("><>", "3221"), (">><", "2332"), ("><<>", "12212"), ("<<>>", "11322"), ("<>><", "22122"),
)
# (dims, arrows carrying zero); arrow i joins position i to i + 1
CYCLES = (
    ([1, 1], ()), ([1, 1, 1], ()), ([1, 1, 1, 1], (2,)), ([1, 0, 1, 1], ()), ([1, 1, 0, 1, 1], (3,)),
    ([1, 1, 1, 1, 1], (0, 2)), ([1, 1, 1, 1, 1], ()), ([1, 0, 0, 1], ()), ([0, 1, 1, 0], ()),
    ([1, 1, 1, 0, 1], (1,)), ([2, 1, 1], ()), ([1, 2, 1, 1], ()),
)


def _reflect_shapes():
    shapes = [("kronecker", {"1": d1, "2": d2}, None) for d1 in range(1, 5) for d2 in range(1, 5)]
    shapes += [("star", dict(zip("12345", map(int, dims))), None) for dims in STAR_DIMS]
    shapes += [("an", {str(i): int(d) for i, d in enumerate(dims, start=1)}, orientation)
               for orientation, dims in AN_DIMS]
    shapes += [("cycle", dims, [i in zero for i in range(len(dims))]) for dims, zero in CYCLES]
    return shapes


REFLECT_SHAPES = _reflect_shapes()


class ReflectSmall:
    """Reflections, End isomorphisms, round trips and cycle criteria on small reps."""

    def __init__(self, q, seed: int):
        self.q, self.seed = q, seed

    def inputs(self, pass_index: int) -> list[Problem]:
        rng = _rng(self.seed, pass_index, 3)
        problems = []
        for kind, dims, extra in REFLECT_SHAPES:
            if kind == "cycle":
                n = len(dims)
                entries, scalars = [], []
                for i in range(n):
                    shape = (dims[(i + 1) % n], dims[i])
                    m = np.zeros(shape, dtype=complex)
                    if not extra[i]:
                        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                    entries.append(m)
                    scalars.append(complex(m[0, 0]) if shape == (1, 1) else 0j)
                d = {"kind": kind, "dims": dims, "entries": entries, "scalars": scalars}
            else:
                arrows = {"kronecker": KRONECKER, "star": STAR}.get(kind) or _an_arrows(len(dims), extra)
                d = {"kind": kind, "dims": dims, "arrows": arrows, "mats": _random_mats(rng, arrows, dims)}
            problems.append(Problem(len(problems), f"{kind}/{dims}", d))
        return problems

    def _quiver(self, d):
        q = self.q
        if d["kind"] == "kronecker":
            return q.quiver.kronecker_quiver()
        if d["kind"] == "star":
            return q.quiver.new_quiver(list("12345"), [(n, s, t) for n, (s, t) in STAR.items()], name="star")
        return q.quiver.new_quiver(list(d["dims"]), [(n, s, t) for n, (s, t) in d["arrows"].items()], name="A")

    def run(self, p: Problem):
        q, d = self.q, p.data
        if d["kind"] == "cycle":
            r = q.cyclic.cycle_rep(d["dims"], d["entries"])
            return r, q.cyclic.cn_transitive_criterion(r), q.hom.end_basis(r).dim
        r = q.rep.new_rep(self._quiver(d), d["dims"], d["mats"])
        kinds = q.quiver.vertex_kinds(r.quiver)
        sink = next(v for v in r.quiver.vertices if kinds[v] == "sink")
        source = next(v for v in r.quiver.vertices if kinds[v] == "source")
        plus = q.reflection.reflect_sink(r, sink)
        identity = q.reflection.transport_hom(plus, plus, q.rep.identity_hom(r))
        iso_plus = q.reflection.verify_end_isomorphism(r, sink, "plus")
        iso_minus = q.reflection.verify_end_isomorphism(r, source, "minus")
        back = q.reflection.reflect_sink(q.reflection.reflect_source(r, source).rep, source).rep
        round_trip = q.hom.find_isomorphism(r, back)
        return r, sink, source, identity, iso_plus, iso_minus, back, round_trip

    def check(self, p: Problem, out, key) -> list[str]:
        d = p.data
        errs = []
        if d["kind"] == "cycle":
            r, criterion, end_dim = out
            want = ref.cycle_transitive(d["dims"], d["scalars"])
            if criterion != want:
                errs.append(f"criterion {criterion}, connectivity check {want}")
            if criterion != (end_dim == 1):
                errs.append(f"criterion {criterion} but dim End = {end_dim}")
            return errs
        r, sink, source, identity, iso_plus, iso_minus, back, round_trip = out
        dims, arrows = d["dims"], {n: (s, t, d["mats"][n]) for n, (s, t) in d["arrows"].items()}
        want_end = ref.end_dim(r.quiver.vertices, dims, arrows)
        for vertex, report, stacked in (
            (sink, iso_plus, [m for s, t, m in arrows.values() if t == sink]),
            (source, iso_minus, [m for s, t, m in arrows.values() if s == source]),
        ):
            if report.end_dim != want_end:
                errs.append(f"End dimension {report.end_dim}, reference {want_end}")
            full = (np.hstack(stacked) if report.direction == "plus" else np.vstack(stacked))
            hypothesis = ref.numeric_rank(full) == dims[vertex] if full.size else dims[vertex] == 0
            if report.hypothesis_ok != hypothesis:
                errs.append(f"{report.direction} at {vertex}: hypothesis {report.hypothesis_ok}, reference {hypothesis}")
            if hypothesis and not (report.ok and report.end_dim == report.end_dim_reflected):
                errs.append(f"{report.direction} at {vertex}: End not carried isomorphically")
        for v, m in identity.mats.items():
            if m.size and np.linalg.norm(m - np.eye(m.shape[0])) > 1e-10:
                errs.append(f"transported identity is not the identity at {v}")
        if iso_minus.hypothesis_ok:  # co-full at the source, as checked above
            if round_trip is None:
                errs.append("no isomorphism found after minus-then-plus")
            else:
                if not ref.is_invertible_family(round_trip.mats):
                    errs.append("round-trip isomorphism is not invertible")
                if ref.intertwining_residual(arrows, r.mats, back.mats, round_trip.mats) > RESIDUAL_TOL:
                    errs.append("round-trip isomorphism does not intertwine")
        elif round_trip is not None:
            errs.append("an isomorphism was returned although the source has a simple summand")
        return errs

    def finish(self) -> dict:
        return {}


# ====================================================================== cli-mix


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    sign = "-" if math.copysign(1.0, z.imag) < 0 else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}j"


def _fmt_matrix(m: np.ndarray) -> str:
    return "[" + "; ".join("[" + ", ".join(_fmt_complex(z) for z in row) + "]" for row in m) + "]"


def rep_text(name: str, vertices, arrows, dims) -> str:
    """A representation file in the project's text format, written by the benchmark."""
    lines = [f"quiver {name}"] + [f"vertex {v}" for v in vertices]
    lines += [f"arrow {n}: {s} -> {t}" for n, (s, t, _) in arrows.items()]
    lines += [f"dim {v} = {dims[v]}" for v in vertices]
    lines += [f"mat {n} = {_fmt_matrix(m)}" for n, (s, t, m) in arrows.items() if dims[s] and dims[t]]
    return "\n".join(lines) + "\n"


def parse_matrix_text(text: str) -> np.ndarray:
    inner = text.strip()[1:-1].strip()
    if not inner:
        return np.zeros((0, 0), dtype=complex)
    rows = []
    for row in inner.split(";"):
        body = row.strip()[1:-1].strip()
        rows.append([complex(tok.strip()) for tok in body.split(",")] if body else [])
    return np.array(rows, dtype=complex).reshape(len(rows), len(rows[0]))


def parse_rep_text(text: str):
    """(vertices, dims, arrows) from the program's rep text, parsed by the benchmark."""
    vertices, dims, arrows, mats = [], {}, {}, {}
    for line in text.splitlines():
        parts = line.split(None, 1)
        if not parts:
            continue
        if parts[0] == "vertex":
            vertices.append(parts[1].strip())
        elif parts[0] == "arrow":
            name, ends = parts[1].split(":", 1)
            src, dst = (x.strip() for x in ends.split("->"))
            arrows[name.strip()] = (src, dst)
        elif parts[0] == "dim":
            v, k = parts[1].split("=")
            dims[v.strip()] = int(k)
        elif parts[0] == "mat":
            name, literal = parts[1].split("=", 1)
            mats[name.strip()] = parse_matrix_text(literal)
    full = {}
    for name, (s, t) in arrows.items():
        full[name] = (s, t, mats.get(name, np.zeros((dims[t], dims[s]), dtype=complex)))
    return vertices, dims, full


def parse_hom_text(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        v, literal = line[len("hom "):].split("=", 1)
        out[v.strip()] = parse_matrix_text(literal)
    return out


@dataclass
class CommandResult:
    code: int
    stdout: str
    stderr: str


class CliMix:
    """One `quivrep` subprocess per command, run one after another.

    With `in_process` set (the traced run) the same commands go through
    `quivrep.cli.run` in this interpreter with stdout and stderr captured.
    """

    def __init__(self, q, seed: int, root: str, workdir: str, in_process: bool = False):
        self.q, self.seed, self.root, self.workdir = q, seed, root, workdir
        self.in_process = in_process
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self._deferred: list = []
        self._exact_cache: dict = {}
        self.max_child_rss_kb = 0

    def _write(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def inputs(self, pass_index: int) -> list[Problem]:
        rng = _rng(self.seed, pass_index, 4)
        os.makedirs(self.workdir, exist_ok=True)
        tag = f"p{pass_index}"
        problems: list[Problem] = []

        def add(label, argv, expect_code=0, kept=False, fmt="json", **data):
            data.update(argv=argv + ["--format", fmt], expect_code=expect_code)
            problems.append(Problem(len(problems), label, data, kept_failure=kept))

        kron_v = ["1", "2"]
        lam = _complex_in_annulus(rng, 0.5, 2.0)
        k = 4
        arrows = {"a": ("1", "2", np.eye(k, dtype=complex)), "b": ("1", "2", ref.jordan(k, lam))}
        path = self._write(f"{tag}-kron-jordan.txt", rep_text("kronecker", kron_v, arrows, {"1": k, "2": k}))
        add("analyze/jordan", ["analyze", path], arrows=arrows, structure={lam: [k]})

        turn = rng.uniform()
        eigs = [rng.uniform(1.0, 2.0) * np.exp(2j * np.pi * (turn + j) / 3) for j in range(3)]
        arrows = {"a": ("1", "2", np.eye(3, dtype=complex)), "b": ("1", "2", np.diag(eigs))}
        path = self._write(f"{tag}-kron-diag.txt", rep_text("kronecker", kron_v, arrows, {"1": 3, "2": 3}))
        add("analyze/diagonal", ["analyze", path], arrows=arrows, structure={complex(e): [1] for e in eigs})

        dims = {"1": 1, "2": 1, "3": 2, "4": 2, "5": 3}
        mats = _random_mats(rng, STAR, dims)
        arrows = {n: (s, t, mats[n]) for n, (s, t) in STAR.items()}
        path = self._write(f"{tag}-star.txt", rep_text("star", list("12345"), arrows, dims))
        add("reflect/star/plus", ["reflect", path, "--vertex", "5", "--dir", "plus", "--verify-end-iso"],
            arrows=arrows, dims=dims, vertex="5")

        dims = {"1": 2, "2": 3}
        mats = _random_mats(rng, KRONECKER, dims)
        arrows = {n: (s, t, mats[n]) for n, (s, t) in KRONECKER.items()}
        kron_path = self._write(f"{tag}-kron-random.txt", rep_text("kronecker", kron_v, arrows, dims))
        add("reflect/kronecker/minus", ["reflect", kron_path, "--vertex", "1", "--dir", "minus", "--verify-end-iso"],
            arrows=arrows, dims=dims, vertex="1")

        cdims = [1, 1, 0, 1, 1, 1]
        zero = [False, False, False, False, True, False]
        scalars = [0j if z else complex(rng.standard_normal(), rng.standard_normal()) for z in zero]
        n = len(cdims)
        cverts = [str(i) for i in range(1, n + 1)]
        carrows = {f"a{i}": (str(i), str(i % n + 1), np.full((cdims[i % n], cdims[i - 1]), scalars[i - 1]))
                   for i in range(1, n + 1)}
        path = self._write(f"{tag}-cycle.txt", rep_text(f"C{n}", cverts, carrows, dict(zip(cverts, cdims))))
        add("cycle", ["cycle", path], dims=cdims, scalars=scalars)

        op_eigs = [complex(x) for x in (1.0, 2.0, 3.0) + rng.uniform(-0.25, 0.25, size=3)]
        op_path = self._write(f"{tag}-op.txt", _fmt_matrix(np.diag(op_eigs)) + "\n")
        add("build/d4tilde/file", ["build", "--family", "d4tilde", "--op", f"file:{op_path}"],
            structure={e: [1] for e in op_eigs})
        lam = _complex_in_annulus(rng, 0.5, 2.0)
        add("build/e6tilde/jordan", ["build", "--family", "e6tilde", "--op", f"jordan:3:{_fmt_complex(lam)}"],
            structure={lam: [3]})

        b = int(rng.choice([2, 3, 4, 5]))
        lam_spec, w_spec, n = ("reciprocal",), ("one-minus-pow", b), 5
        add("opmodel/shift-rank-one",
            ["opmodel", "--pair", "shift-rank-one", "--lambda", ref.seq_literal(lam_spec),
             "--w", ref.seq_literal(w_spec), "--n", str(n), "--density", "--four-subspace", "--phi"],
            lam=lam_spec, w=w_spec, n=n)

        # text format: the JSON rendering of the operator suite fails (see CHANGES.md)
        add("verify/all", ["verify", "--suite", "all", "--seed", "7"], fmt="text")
        add("usage/missing-file", ["analyze", os.path.join(self.workdir, f"{tag}-missing.txt")], expect_code=2)
        add("precondition/not-a-sink", ["reflect", kron_path, "--vertex", "1", "--dir", "plus"], expect_code=3)
        # Pinned by the weights, not the seed: hrr overflows a float at n = 7.
        add("opmodel/bilateral-hrr",
            ["opmodel", "--pair", "bilateral", "--lambda", "seq:const:1", "--w", "seq:hrr", "--n", "7"],
            expect_code=3, kept=True)
        return problems

    # -- running

    def _run_subprocess(self, argv) -> CommandResult:
        out_path = os.path.join(self.workdir, "stdout.txt")
        err_path = os.path.join(self.workdir, "stderr.txt")
        with open(out_path, "wb") as out_fh, open(err_path, "wb") as err_fh:
            proc = subprocess.Popen([sys.executable, "-m", "quivrep", *argv], cwd=self.root,
                                    env=self.env, stdout=out_fh, stderr=err_fh)
            killer = threading.Timer(150.0, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
        with open(out_path, encoding="utf-8") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8") as fh:
            stderr = fh.read()
        return CommandResult(proc.returncode, stdout, stderr)

    def _run_in_process(self, argv) -> CommandResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.q.cli.run(argv)
            except Exception:  # an uncaught exception ends the real command with code 1
                traceback.print_exc(file=err)
                code = 1
        return CommandResult(code, out.getvalue(), err.getvalue())

    def run(self, p: Problem) -> CommandResult:
        if self.in_process:
            return self._run_in_process(p.data["argv"])
        return self._run_subprocess(p.data["argv"])

    # -- checking

    def check(self, p: Problem, res: CommandResult, key) -> list[str]:
        d = p.data
        if res.code != d["expect_code"] and not (p.kept_failure and res.code == 0):
            return [f"exit code {res.code}, expected {d['expect_code']}: {res.stderr.strip()[-300:]}"]
        if res.code in (2, 3):
            lines = res.stderr.strip().splitlines()
            if len(lines) != 1 or not lines[0].startswith("error: "):
                return [f"exit code {res.code} without a one-line 'error:' message"]
            return []
        if p.label.startswith("verify"):
            return self._check_verify(res.stdout)
        try:
            report = json.loads(res.stdout)
        except json.JSONDecodeError as e:
            return [f"report is not JSON: {e}"]
        if p.kept_failure:
            return [] if isinstance(report, dict) and "pair" in report else ["report lacks its fields"]
        return getattr(self, "_check_" + p.label.split("/")[0])(p, report, key)

    def _check_analyze(self, p, report, key) -> list[str]:
        d = p.data
        errs = []
        want_dim = ref.commutant_dim(d["structure"])
        if report["end_dim"] != want_dim:
            errs.append(f"end_dim {report['end_dim']}, commutant dimension {want_dim}")
        want = "indecomposable" if ref.is_single_block(d["structure"]) else "decomposable"
        if report["verdict"] != want:
            errs.append(f"verdict {report['verdict']}, expected {want}")
        if report["transitive"] != (want_dim == 1):
            errs.append("transitive flag disagrees with the End dimension")
        if want == "decomposable":
            e = parse_hom_text(report.get("idempotent_witness", ""))
            mats = {n: m for n, (_, _, m) in d["arrows"].items()}
            errs += _witness_errors(d["arrows"], mats, {v: e.get(v, np.zeros((0, 0))) for v in ("1", "2")})
        return errs

    def _check_reflect(self, p, report, key) -> list[str]:
        d = p.data
        errs = []
        vertices = sorted(d["dims"])
        want_end = ref.end_dim(vertices, d["dims"], d["arrows"])
        iso = report["end_iso"]
        if not (iso["ok"] and iso["hypothesis_ok"] and iso["end_dim"] == iso["end_dim_reflected"] == want_end):
            errs.append(f"End isomorphism report {iso}, reference End dimension {want_end}")
        v = d["vertex"]
        touching = [m for s, t, m in d["arrows"].values() if v in (s, t)]
        want_dim = sum(m.shape[1 if report["direction"] == "plus" else 0] for m in touching) - d["dims"][v]
        if report["dims_after"][v] != want_dim:
            errs.append(f"reflected dimension {report['dims_after'][v]}, expected {want_dim}")
        # the reflected representation, read back by the benchmark, has End of the same dimension
        r_vertices, r_dims, r_arrows = parse_rep_text(report["reflected"])
        if ref.end_dim(r_vertices, r_dims, r_arrows) != want_end:
            errs.append("the reflected representation's End dimension differs")
        return errs

    def _check_cycle(self, p, report, key) -> list[str]:
        d = p.data
        errs = []
        want = ref.cycle_transitive(d["dims"], d["scalars"])
        comps = ref.cycle_components(d["dims"], d["scalars"])
        if report["criterion"] != want or report["direct_transitive"] != want or not report["agree"]:
            errs.append(f"criterion {report['criterion']}, direct {report['direct_transitive']}, reference {want}")
        if report["end_dim"] != len(comps):
            errs.append(f"end_dim {report['end_dim']}, components {len(comps)}")
        want_comps = sorted(",".join(str(i + 1) for i in sorted(c)) for c in comps)
        if sorted(report.get("components", [])) != want_comps:
            errs.append(f"components {report.get('components')}, reference {want_comps}")
        return errs

    def _check_build(self, p, report, key) -> list[str]:
        structure = p.data["structure"]
        errs = []
        want_dim = ref.commutant_dim(structure)
        want = "indecomposable" if ref.is_single_block(structure) else "decomposable"
        if report["end_dim"] != want_dim or report["verdict"] != want:
            errs.append(f"end_dim {report['end_dim']} / {report['verdict']}, expected {want_dim} / {want}")
        vertices, dims, arrows = parse_rep_text(report["rep"])
        if ref.end_dim(vertices, dims, arrows) != want_dim:
            errs.append("the built representation, read back, has another End dimension")
        return errs

    def _check_opmodel(self, p, report, key) -> list[str]:
        d = p.data
        errs = []
        four, phi = report["four_subspace"], report["phi"]
        if not (four["agree"] and four["end_dim"] == four["rep_end_dim"] == phi["system_end_dim"]):
            errs.append(f"End dimensions disagree: {four}, {phi}")
        n = d["n"]
        a, b = ref.shift_rank_one([ref.seq_value(d["lam"], i) for i in range(1, n + 1)],
                                  [ref.seq_value(d["w"], i) for i in range(1, n + 1)])
        want_ker = n * ref.joint_kernel_dim(a, b)
        if phi["ker_dim"] != want_ker:
            errs.append(f"phi kernel {phi['ker_dim']}, reference {want_ker}")
        if report["density"]["dense"] != ref.dense(d["lam"], d["w"]):
            errs.append("density verdict differs from the closed form")
        self._deferred.append((key, (d["lam"], d["w"], n), (phi["end_dim"], four["end_dim"])))
        return errs

    @staticmethod
    def _check_verify(text: str) -> list[str]:
        top = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line and not line.startswith(" "))
        if top.get("failed") != "0" or top.get("ok") != "true":
            return [f"verify reports failed: {top.get('failed')}, ok: {top.get('ok')}"]
        return []

    def finish(self) -> dict:
        return _exact_checks(self._deferred, self._exact_cache)
