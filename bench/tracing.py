"""Span recorder for the traced run, and the per-layer metrics computed from it.

The recorder wraps public functions of quivrep's modules from the outside.  A
wrapped call records one span: name, start, end, parent span, problem id and
an optional attribute (a size or an outcome).  A function that another quivrep
module imported by name (``from .rep import make_hom``) is rebound there as
well, so calls between modules are seen.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import re
import subprocess
import sys
from time import perf_counter

import numpy as np


def _shape_melem(args, kwargs, out):
    shape = np.shape(args[0])
    return shape[0] * shape[1] / 1e6 if len(shape) == 2 else 0.0


def _hom_system_melem(args, kwargs, out):
    r1, r2 = args[0], args[1]
    rows = sum(r2.dims[a.dst] * r1.dims[a.src] for a in r1.quiver.arrows)
    cols = sum(r2.dims[v] * r1.dims[v] for v in r1.quiver.vertices)
    return rows * cols / 1e6


def _subspace_system_melem(args, kwargs, out):
    s = args[0]
    d2 = s.ambient * s.ambient
    return len(s.injections) * d2 * d2 / 1e6


def _is_real(args, kwargs, out):
    return not np.iscomplexobj(out)


def _found(args, kwargs, out):
    return out is not None


# (module, function, span name, attribute)
TARGETS = [
    ("linalg", "nullspace_with_values", "linalg.factor", _shape_melem),
    ("linalg", "orth", "linalg.factor", _shape_melem),
    ("linalg", "matrix_rank", "linalg.factor", _shape_melem),
    ("linalg", "is_invertible", "linalg.factor", _shape_melem),
    ("linalg", "real_if_exact", "linalg.real_if_exact", _is_real),
    ("linalg", "cluster_eigenvalues", "linalg.cluster", None),
    ("linalg", "spectral_projection", "linalg.spectral_projection", None),
    ("hom", "hom_basis", "hom.hom_basis", _hom_system_melem),
    ("hom", "end_basis", "hom.end_basis", None),
    ("hom", "find_nontrivial_idempotent", "hom.idempotent", _found),
    ("hom", "is_indecomposable", "hom.is_indecomposable", None),
    ("hom", "find_isomorphism", "hom.isomorphism", None),
    ("rep", "make_hom", "rep.make_hom", None),
    ("rep", "decompose_with", "rep.decompose", None),
    ("reflection", "reflect_sink", "reflection.reflect", None),
    ("reflection", "reflect_source", "reflection.reflect", None),
    ("reflection", "transport_hom", "reflection.transport", None),
    ("reflection", "verify_end_isomorphism", "reflection.end_iso", None),
    ("reflection", "is_full_at_sink", "reflection.hypothesis", None),
    ("reflection", "is_co_full_at_source", "reflection.hypothesis", None),
    ("builders", "build_extended_dynkin", "builders.build", None),
    ("builders", "build_an_tilde_noncyclic", "builders.build", None),
    ("builders", "subspace_inclusion_rep", "builders.build", None),
    ("opmodels", "subspace_system_end", "opmodels.system_end", _subspace_system_melem),
    ("opmodels", "subspace_system_rep", "opmodels.system_rep", None),
    ("opmodels", "four_subspace_from_pair", "opmodels.four_subspace", None),
    ("opmodels", "phi_map", "opmodels.phi", None),
    ("opmodels", "density_criterion", "opmodels.density", None),
    ("opmodels", "kron_pair_shift_rank_one", "opmodels.pair", None),
    ("opmodels", "kron_pair_bilateral", "opmodels.pair", None),
    ("cyclic", "cn_transitive_criterion", "cyclic.criterion", None),
    ("cyclic", "hf_components", "cyclic.criterion", None),
    ("textio", "parse_rep", "textio.parse", None),
    ("textio", "parse_quiver", "textio.parse", None),
    ("textio", "parse_matrix", "textio.parse", None),
    ("textio", "format_rep", "textio.format", None),
    ("textio", "format_hom", "textio.format", None),
    ("textio", "format_quiver", "textio.format", None),
    ("textio", "format_matrix", "textio.format", None),
    ("cli", "run", "cli.command", None),
    ("cli", "render_report", "cli.render", None),
    ("verify", "run_suites", "verify.suites", None),
]


class Recorder:
    """Spans as tuples (name, start, end, parent index, problem id, attribute)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.problem = -1
        self._patched: list = []

    def _wrap(self, name, fn, attr_fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            out = None
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = perf_counter()
                stack.pop()
                attr = attr_fn(args, kwargs, out) if attr_fn is not None else None
                spans[idx] = (name, start, end, parent, self.problem, attr)

        return traced

    def install(self):
        """Wrap every target and rebind it in each quivrep module that holds it."""
        targets = [(importlib.import_module(f"quivrep.{m}"), f, span, attr) for m, f, span, attr in TARGETS]
        modules = [m for n, m in sorted(sys.modules.items()) if n == "quivrep" or n.startswith("quivrep.")]
        for mod, fn_name, span, attr_fn in targets:
            original = getattr(mod, fn_name)
            wrapped = self._wrap(span, original, attr_fn)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
                        self._patched.append((holder, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    @contextlib.contextmanager
    def problem_span(self, pid: int):
        """Mark one problem: the calls inside carry the id `pid`."""
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self.problem = pid
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = ("problem", start, end, -1, pid, None)
            self.problem = -1

    def dump(self, path: str):
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "problem": pid, "attr": a}
            for n, s, e, p, pid, a in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


# ---------------------------------------------------------------- metrics

FACTOR = "linalg.factor"

LAYER_UNITS = {
    "linalg.factor_s": "s",
    "linalg.factor_calls": "count",
    "linalg.factor_melem": "Melem",
    "linalg.real_path_calls": "count",
    "linalg.cluster_s": "s",
    "linalg.spectral_projection_s": "s",
    "hom.hom_basis_s": "s",
    "hom.hom_basis_calls": "count",
    "hom.system_melem": "Melem",
    "hom.end_solves_per_problem": "count",
    "hom.idempotent_s": "s",
    "hom.idempotent_searches": "count",
    "hom.idempotent_witnesses": "count",
    "hom.idempotent_hit_ratio": "ratio",
    "hom.isomorphism_s": "s",
    "rep.make_hom_calls": "count",
    "rep.make_hom_s": "s",
    "rep.decompose_s": "s",
    "reflection.reflect_s": "s",
    "reflection.transport_calls": "count",
    "reflection.transport_s": "s",
    "reflection.end_iso_s": "s",
    "builders.build_s": "s",
    "opmodels.system_end_s": "s",
    "opmodels.system_end_calls": "count",
    "opmodels.system_melem": "Melem",
    "opmodels.phi_s": "s",
    "opmodels.density_s": "s",
    "cyclic.criterion_s": "s",
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "cli.command_s": "s",
    "cli.render_s": "s",
    "textio.parse_s": "s",
    "textio.format_s": "s",
    "verify.suites_s": "s",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(spans, problems: int) -> dict[str, float]:
    """Per-layer metrics from recorded spans, each divided by `problems`.

    Times are seconds.  A layer's time sums its outermost spans (a span whose
    ancestors carry the same name is inside it already); self time subtracts
    the time its direct child spans cover.  Counts are calls.  The two
    per-problem call counts that describe the shape of a problem
    (`hom.end_solves_per_problem`, `opmodels.system_end_calls`) count calls
    inside problems only; everything else also covers the traced warm-up.
    """
    n = len(spans)
    child_time = [0.0] * n
    for name, start, end, parent, pid, attr in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def nested_in(i, names):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] in names:
                return True
            p = spans[p][3]
        return False

    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    in_problem: dict[str, int] = {}
    melem: dict[str, float] = {}
    for i, (name, start, end, parent, pid, attr) in enumerate(spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        if pid >= 0:
            in_problem[name] = in_problem.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + dur - child_time[i]
        if not nested_in(i, {name}):
            total[name] = total.get(name, 0.0) + dur
        if isinstance(attr, float):
            melem[name] = melem.get(name, 0.0) + attr

    real_path = sum(
        1
        for name, _, _, parent, _, attr in spans
        if name == "linalg.real_if_exact" and attr and parent >= 0 and spans[parent][0] == FACTOR
    )
    trials = sum(
        1
        for i, (name, *_rest) in enumerate(spans)
        if name == "linalg.cluster" and nested_in(i, {"hom.idempotent"})
    )
    witnesses = sum(1 for name, *_r, attr in spans if name == "hom.idempotent" and attr)

    def t(name):
        return total.get(name, 0.0)

    def c(name):
        return calls.get(name, 0)

    out = {
        "linalg.factor_s": t(FACTOR),
        "linalg.factor_calls": c(FACTOR),
        "linalg.factor_melem": melem.get(FACTOR, 0.0),
        "linalg.real_path_calls": real_path,
        "linalg.cluster_s": t("linalg.cluster"),
        "linalg.spectral_projection_s": t("linalg.spectral_projection"),
        "hom.hom_basis_s": self_time.get("hom.hom_basis", 0.0),
        "hom.hom_basis_calls": c("hom.hom_basis"),
        "hom.system_melem": melem.get("hom.hom_basis", 0.0),
        "hom.end_solves_per_problem": in_problem.get("hom.end_basis", 0),
        "hom.idempotent_s": t("hom.idempotent"),
        "hom.idempotent_searches": c("hom.idempotent"),
        "hom.idempotent_witnesses": witnesses,
        "hom.isomorphism_s": t("hom.isomorphism"),
        "rep.make_hom_calls": c("rep.make_hom"),
        "rep.make_hom_s": t("rep.make_hom"),
        "rep.decompose_s": t("rep.decompose"),
        "reflection.reflect_s": t("reflection.reflect"),
        "reflection.transport_calls": c("reflection.transport"),
        "reflection.transport_s": t("reflection.transport"),
        "reflection.end_iso_s": self_time.get("reflection.end_iso", 0.0),
        "builders.build_s": t("builders.build"),
        "opmodels.system_end_s": t("opmodels.system_end"),
        "opmodels.system_end_calls": in_problem.get("opmodels.system_end", 0),
        "opmodels.system_melem": melem.get("opmodels.system_end", 0.0),
        "opmodels.phi_s": self_time.get("opmodels.phi", 0.0),
        "opmodels.density_s": t("opmodels.density"),
        "cyclic.criterion_s": t("cyclic.criterion"),
        "cli.command_s": self_time.get("cli.command", 0.0),
        "cli.render_s": t("cli.render"),
        "textio.parse_s": t("textio.parse"),
        "textio.format_s": t("textio.format"),
        "verify.suites_s": t("verify.suites"),
    }
    out = {k: v / problems for k, v in out.items()}
    # a ratio of outcomes, not a per-problem figure
    out["hom.idempotent_hit_ratio"] = witnesses / trials if trials else 0.0
    return out


def import_times(python: str, env: dict, repeats: int = 3) -> dict[str, float]:
    """Median cumulative import time of quivrep and of the scipy packages it pulls in.

    Read from ``python -X importtime``, one fresh interpreter per repeat.
    """
    line_re = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")
    quivrep_us, scipy_us = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", "import quivrep"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        rows = []
        for line in proc.stderr.splitlines():
            m = line_re.match(line)
            if m:
                rows.append((int(m.group(2)), len(m.group(3)), m.group(4)))
        quivrep_us.append(next(cum for cum, _, name in rows if name == "quivrep"))
        # outermost scipy entries: rows are printed children-first, so a scipy
        # row is outermost when no later row at a smaller indent is scipy too
        total, open_indent = 0, None
        for cum, indent, name in reversed(rows):
            if open_indent is not None and indent <= open_indent:
                open_indent = None
            if name.split(".")[0] == "scipy" and open_indent is None:
                total += cum
                open_indent = indent
        scipy_us.append(total)
    return {
        "cli.import_s": float(np.median(quivrep_us)) / 1e6,
        "cli.import_scipy_s": float(np.median(scipy_us)) / 1e6,
    }
