"""Command-line front end.

Subcommands: analyze, reflect, build, cycle, opmodel, verify.  Every command
accepts --tol, --seed and --format after its own arguments; reports are
deterministic in (input, seed, tol) so repeated runs emit identical bytes.
Exit codes: 0 success, 1 verification-suite failure, 2 parse error,
3 precondition violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import builders, cyclic, hom, linalg, opmodels, reflection, textio, verify
from .config import IDEM_TOL, TOL
from .errors import ParseError
from .quiver import kronecker_quiver
from .textio import fmt_real


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-9, help="relative tolerance")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized searches")
    common.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")

    p = argparse.ArgumentParser(
        prog="quivrep",
        description="Finite-dimensional quiver representations: End computation, "
        "reflections, cyclic-quiver criteria, operator models.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", parents=[common],
                        help="End dimension, transitivity and indecomposability of a rep file")
    pa.add_argument("file")

    pr = sub.add_parser("reflect", parents=[common],
                        help="apply a reflection at a sink (plus) or source (minus)")
    pr.add_argument("file")
    pr.add_argument("--vertex", required=True)
    pr.add_argument("--dir", required=True, choices=("plus", "minus"))
    pr.add_argument("--verify-end-iso", action="store_true", dest="verify_end_iso")

    pb = sub.add_parser("build", parents=[common],
                        help="build a subspace-family representation from an operator")
    pb.add_argument("--family", required=True,
                    choices=("d4tilde", "e6tilde", "e7tilde", "e8tilde", "antilde"))
    pb.add_argument("--op", required=True, metavar="jordan:k[:lam]|file:<mat>")

    pc = sub.add_parser("cycle", parents=[common],
                        help="one-way cycle: scalar criterion vs direct End computation")
    pc.add_argument("file")

    po = sub.add_parser("opmodel", parents=[common],
                        help="operator pairs, four-subspace systems and density checks")
    po.add_argument("--pair", required=True, choices=("shift-rank-one", "bilateral"))
    po.add_argument("--lambda", dest="lam", required=True, metavar="SEQ")
    po.add_argument("--w", required=True, metavar="SEQ")
    po.add_argument("--n", type=int, required=True)
    po.add_argument("--density", action="store_true")
    po.add_argument("--four-subspace", action="store_true", dest="four_subspace")
    po.add_argument("--phi", action="store_true")

    pv = sub.add_parser("verify", parents=[common], help="run a deterministic self-check suite")
    pv.add_argument("--suite", required=True,
                    choices=("reflection", "cyclic", "operator", "builders", "all"))
    pv.add_argument("--trials", type=int, default=25)
    return p


# --------------------------------------------------------------- rendering


def _scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return fmt_real(v)
    if v is None:
        return "none"
    return str(v)


def _text_lines(d: dict, lines: list[str], prefix: str):
    for k, v in d.items():
        if isinstance(v, dict):
            lines.append(f"{prefix}{k}:")
            _text_lines(v, lines, prefix + "  ")
        elif isinstance(v, list):
            lines.append(f"{prefix}{k}:")
            for item in v:
                if isinstance(item, dict) and set(item) == {"name", "ok", "detail"}:
                    mark = "ok  " if item["ok"] else "FAIL"
                    tail = f"  [{item['detail']}]" if item["detail"] else ""
                    lines.append(f"{prefix}  {mark} {item['name']}{tail}")
                else:
                    lines.append(f"{prefix}  - {_scalar(item)}")
        elif isinstance(v, str) and "\n" in v:
            lines.append(f"{prefix}{k}:")
            lines.extend(prefix + "  " + ln for ln in v.splitlines())
        else:
            lines.append(f"{prefix}{k}: {_scalar(v)}")


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    lines: list[str] = []
    _text_lines(report, lines, "")
    return "\n".join(lines)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _base_report(args, echo: str) -> dict:
    return {"command": echo, "tol": TOL.get(), "seed": args.seed}


# ---------------------------------------------------------------- commands


def _cmd_analyze(args, echo):
    r = textio.parse_rep(_read(args.file))
    verdict = hom.is_indecomposable(r, seed=args.seed)
    max_residual = hom.end_basis(r).max_residual
    if not np.isfinite(max_residual):
        raise OverflowError("the End basis's intertwining residual is not finite")
    report = _base_report(args, echo)
    report.update(
        quiver=r.quiver.name,
        dims=dict(r.dims),
        end_dim=verdict.end_dim,
        max_residual=float(max_residual),
        transitive=bool(verdict.end_dim == 1),
        indecomposable=verdict.indecomposable,
        verdict=verdict.kind,
    )
    if verdict.witness is not None:
        report["idempotent_witness"] = textio.format_hom(verdict.witness).rstrip("\n")
    return report, 0


def _cmd_reflect(args, echo):
    r = textio.parse_rep(_read(args.file))
    if args.vertex not in r.quiver.vertices:
        raise ParseError(f"vertex {args.vertex!r} not in quiver {r.quiver.name!r}")
    if args.dir == "plus":
        res = reflection.reflect_sink(r, args.vertex)
    else:
        res = reflection.reflect_source(r, args.vertex)
    report = _base_report(args, echo)
    report.update(
        vertex=args.vertex,
        direction=args.dir,
        dims_before=dict(r.dims),
        dims_after=dict(res.rep.dims),
        reflected=textio.format_rep(res.rep).rstrip("\n"),
    )
    if args.verify_end_iso:
        iso = reflection.verify_end_isomorphism(r, args.vertex, args.dir)
        fields = asdict(iso)
        del fields["vertex"], fields["direction"]
        report["end_iso"] = {**fields, "ok": iso.ok}
    return report, 0


def _parse_op(spec: str) -> np.ndarray:
    if spec.startswith("jordan:"):
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise ParseError(f"operator literal {spec!r}; expected jordan:k[:lam]")
        try:
            k = int(parts[1])
        except ValueError:
            raise ParseError(f"bad Jordan size in {spec!r}") from None
        if k < 1:
            raise ParseError(f"Jordan size must be >= 1, got {k}")
        lam = textio.parse_complex(parts[2]) if len(parts) == 3 else 0.0
        if not np.isfinite(lam):
            raise ParseError(f"non-finite eigenvalue in operator literal {spec!r}")
        return opmodels.jordan_block(k, lam)
    if spec.startswith("file:"):
        op = textio.parse_matrix(_read(spec[len("file:") :]))
        if not np.all(np.isfinite(op)):
            raise ParseError(f"non-finite entry in operator file {spec!r}")
        return op
    raise ParseError(f"operator literal {spec!r}; expected jordan:k[:lam] or file:<mat>")


def _cmd_build(args, echo):
    op = _parse_op(args.op)
    report = _base_report(args, echo)
    report.update(family=args.family, op=args.op)
    if args.family == "antilde":
        built = builders.build_an_tilde_noncyclic(
            kronecker_quiver(), np.eye(op.shape[0], dtype=complex), op)
        r = built.rep
        report["arrow_a"] = built.arrow_a
        report["arrow_b"] = built.arrow_b
    else:
        r = builders.build_extended_dynkin(args.family, op)
    verdict = hom.is_indecomposable(r, seed=args.seed)
    report.update(
        dims=dict(r.dims),
        end_dim=verdict.end_dim,
        indecomposable=verdict.indecomposable,
        verdict=verdict.kind,
        rep=textio.format_rep(r).rstrip("\n"),
    )
    return report, 0


def _cmd_cycle(args, echo):
    r = textio.parse_rep(_read(args.file))
    crit = cyclic.cn_transitive_criterion(r)
    eb = hom.end_basis(r)
    direct = eb.dim == 1
    report = _base_report(args, echo)
    report.update(
        quiver=r.quiver.name,
        dims=dict(r.dims),
        criterion=crit,
        end_dim=eb.dim,
        direct_transitive=direct,
        agree=bool(crit == direct),
    )
    if all(d <= 1 for d in r.dims.values()):
        comps = cyclic.hf_components(r)
        report["components"] = [",".join(str(i) for i in comp) for comp in comps]
    return report, 0


def _cmd_opmodel(args, echo):
    try:
        lam = opmodels.parse_sequence(args.lam)
        w = opmodels.parse_sequence(args.w)
    except ValueError as e:
        raise ParseError(str(e)) from None
    if args.n < 1:
        raise ParseError(f"--n must be >= 1, got {args.n}")
    if args.pair == "shift-rank-one":
        pair = opmodels.kron_pair_shift_rank_one(lam, w, args.n)
    else:
        pair = opmodels.kron_pair_bilateral(lam, w, args.n)
    sa = np.linalg.svd(pair.a, compute_uv=False)
    sb = np.linalg.svd(pair.b, compute_uv=False)
    n = pair.n
    report = _base_report(args, echo)
    report.update(
        pair=pair.tag,
        size=n,
        sigma_min_a=float(sa[-1]),
        sigma_min_b=float(sb[-1]),
        ker_dim_a=int(np.sum(sa <= linalg.svd_cutoff(sa, pair.a.shape))),
        ker_dim_b=int(np.sum(sb <= linalg.svd_cutoff(sb, pair.b.shape))),
    )
    if args.density:
        v = opmodels.density_criterion(lam, w)
        report["density"] = {
            "dense": v.dense,
            "weight_ratio_square_summable": v.ratio_l2,
            "reason": v.reason,
        }
    if args.four_subspace:
        system = opmodels.four_subspace_from_pair(pair)
        basis = opmodels.subspace_system_end(system)
        # read off End of the inclusion rep: `agree` says its lift intertwines
        report["four_subspace"] = {
            "ambient": system.ambient,
            "sub_dims": list(system.sub_dims),
            "end_dim": basis.dim,
            "max_residual": float(basis.max_residual),
            "rep_end_dim": basis.dim,
            "agree": bool(basis.max_residual <= IDEM_TOL),
        }
    if args.phi:
        pm = opmodels.phi_map(pair)
        report["phi"] = asdict(pm)
    return report, 0


def _cmd_verify(args, echo):
    if args.trials < 1:
        raise ParseError(f"--trials must be >= 1, got {args.trials}")
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    results = verify.run_suites(names, args.trials, args.seed)
    report = _base_report(args, echo)
    report["trials"] = args.trials
    total = failed = 0
    suites = {}
    for name in names:
        checks = results[name]
        total += len(checks)
        bad = sum(not c.ok for c in checks)
        failed += bad
        suites[name] = {
            "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks],
            "failed": bad,
        }
    report["suites"] = suites
    report["total_checks"] = total
    report["failed"] = failed
    report["ok"] = failed == 0
    return report, 0 if failed == 0 else 1


_COMMANDS = {
    "analyze": _cmd_analyze,
    "reflect": _cmd_reflect,
    "build": _cmd_build,
    "cycle": _cmd_cycle,
    "opmodel": _cmd_opmodel,
    "verify": _cmd_verify,
}


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    if not 0 < args.tol < np.inf:
        print("error: --tol must be positive and finite", file=sys.stderr)
        return 2
    token = TOL.set(args.tol)
    echo = " ".join(argv)
    try:
        report, code = _COMMANDS[args.command](args, echo)
        text = render_report(report, args.fmt)
    except (ParseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except OverflowError as e:
        print(f"error: a value leaves the double-precision range ({e})", file=sys.stderr)
        return 3
    finally:
        TOL.reset(token)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader left: send what is still buffered to devnull, so the flush
        # at interpreter shutdown does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed before the report was written", file=sys.stderr)
        return 2
    return code


def main(argv=None) -> None:
    raise SystemExit(run(argv))

