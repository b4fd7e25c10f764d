"""One fresh interpreter for one workload; started by run.py, not by hand.

It imports quivrep from the checkout's ``src``, builds the workload's first
inputs and prints ``ready`` (run.py times the launch up to that line).  With
``--setup-only`` it stops there.  Otherwise it warms up, runs whole passes and
prints one JSON line with the counts, the problem times, the memory peak and
the platform it ran on.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
# untraced + traced pass pairs in a traced run
TRACE_ROUNDS = 2


def import_quivrep():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import quivrep

    if os.path.dirname(os.path.dirname(os.path.abspath(quivrep.__file__))) != src:
        raise SystemExit(f"quivrep was imported from {quivrep.__file__}, not from {src}")
    return quivrep


def make_workload(q, name: str, seed: int, workdir: str, in_process: bool):
    import workloads

    if name == "dynkin-end":
        return workloads.DynkinEnd(q, seed)
    if name == "four-subspace":
        return workloads.FourSubspace(q, seed)
    if name == "reflect-small":
        return workloads.ReflectSmall(q, seed)
    return workloads.CliMix(q, seed, ROOT, workdir, in_process=in_process)


def blas_info() -> dict:
    import numpy as np
    import scipy

    info = {"numpy": np.__version__, "scipy": scipy.__version__}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*.so"))
    if libs:
        dll = ctypes.CDLL(libs[0])
        config = getattr(dll, "scipy_openblas_get_config64_", None)
        threads = getattr(dll, "scipy_openblas_get_num_threads64_", None)
        if config is not None and threads is not None:
            config.restype = ctypes.c_char_p
            threads.restype = ctypes.c_int
            info["openblas"] = config().decode()
            info["blas_threads"] = threads()
    return info


def warm_up(q):
    """Untimed: wake the BLAS thread pool and send one small input through every layer.

    In fresh interpreters an early BLAS call has been seen to stall for up to a
    second; the first calls into scipy's Schur and Sylvester solvers and the
    CLI's parser pay one-off costs as well.
    """
    import numpy as np

    import reference as ref

    rng = np.random.default_rng(0)
    for n in (64, 256, 400):
        np.linalg.svd(rng.standard_normal((n, n)))
        np.linalg.svd(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    r = q.builders.build_extended_dynkin("d4tilde", np.diag([1.0, 2.0]))
    q.hom.end_basis(r)
    verdict = q.hom.is_indecomposable(r)
    q.rep.decompose_with(r, verdict.witness)
    q.hom.is_indecomposable(q.builders.build_extended_dynkin("d4tilde", ref.jordan(2, 0.5)))
    kr = q.rep.new_rep(q.quiver.kronecker_quiver(), {"1": 1, "2": 2}, {"a": [[1.0], [0.0]], "b": [[0.0], [1.0]]})
    res = q.reflection.reflect_sink(kr, "2")
    q.reflection.transport_hom(res, res, q.rep.identity_hom(kr))
    q.reflection.verify_end_isomorphism(kr, "2", "plus")
    q.reflection.verify_end_isomorphism(kr, "1", "minus")
    back = q.reflection.reflect_sink(q.reflection.reflect_source(kr, "1").rep, "1").rep
    q.hom.find_isomorphism(kr, back)
    q.cyclic.cn_transitive_criterion(q.cyclic.cycle_rep([1, 1, 1], [1.0, 2.0, 0.0]))
    pair = q.opmodels.kron_pair_shift_rank_one("seq:reciprocal", "seq:one-minus-pow:2", 3)
    system = q.opmodels.four_subspace_from_pair(pair)
    q.opmodels.subspace_system_end(system)
    q.hom.end_basis(q.opmodels.subspace_system_rep(system))
    q.opmodels.phi_map(pair)
    q.opmodels.density_criterion("seq:reciprocal", "seq:one-minus-pow:2")
    q.textio.parse_rep(q.textio.format_rep(kr))
    with contextlib.redirect_stdout(io.StringIO()):
        q.cli.run(["build", "--family", "d4tilde", "--op", "jordan:2", "--format", "json"])
    q.verify.run_suites(["reflection"], 1, 0)


def run_pass(workload, problems, round_index: int, times: list, failures: dict, recorder=None):
    """Run every problem once: time `run`, then check its output untimed.

    `failures` maps (round, problem id) to (label, kept failure?, messages).
    """
    for p in problems:
        error = None
        start = perf_counter()
        try:
            if recorder is None:
                out = workload.run(p)
            else:
                with recorder.problem_span(p.pid):
                    out = workload.run(p)
        except Exception as e:  # a raising call is a failed operation, reported by name
            out, error = None, f"{type(e).__name__}: {e}"
        times.append(perf_counter() - start)
        key = (round_index, p.pid)
        errs = [error] if error else workload.check(p, out, key)
        if errs:
            failures[key] = (p.label, p.kept_failure, errs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    q = import_quivrep()
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        workload = make_workload(q, args.workload, args.seed, workdir, in_process=bool(args.trace))
        first = workload.inputs(0)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        return measure(q, workload, first, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(q, workload, first, args) -> int:
    import quivrep.cli  # noqa: F401  (the warm-up and the traced run use both)
    import quivrep.verify  # noqa: F401

    times: list[float] = []
    failures: dict = {}
    passes = 0
    result: dict = {"env": {"python": platform.python_version(), **blas_info()}}
    if not args.trace:
        warm_up(q)
        problems = first
        while True:
            run_pass(workload, problems, passes, times, failures)
            passes += 1
            if sum(times) >= args.seconds:
                break
            problems = workload.inputs(passes)
        if args.workload == "cli-mix":
            result["peak_rss_mb"] = workload.max_child_rss_kb / 1024.0
        else:
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        import tracing

        # Untraced and traced passes alternate over the same inputs, a fixed
        # number of times, so that counts per problem repeat exactly.  The
        # traced part also covers the warm-up, which reaches every layer.
        recorder = tracing.Recorder()
        recorder.install()
        try:
            warm_up(q)
        finally:
            recorder.uninstall()
        untraced = traced = 0.0
        for _ in range(TRACE_ROUNDS):
            start = sum(times)
            run_pass(workload, first, passes, times, failures)
            middle = sum(times)
            recorder.install()
            try:
                run_pass(workload, first, passes + 1, times, failures, recorder)
            finally:
                recorder.uninstall()
            untraced += middle - start
            traced += sum(times) - middle
            passes += 2
        metrics = tracing.layer_metrics(recorder.spans, TRACE_ROUNDS * len(first))
        metrics.update(tracing.import_times(sys.executable, os.environ))
        metrics["trace.overhead_ratio"] = traced / untraced - 1.0
        result["layers"] = metrics
        os.makedirs(OUT, exist_ok=True)
        recorder.dump(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"))

    for key, errs in workload.finish().items():
        p = first[key[1]]
        label, kept, old = failures.get(key, (p.label, p.kept_failure, []))
        failures[key] = (label, kept, old + errs)
    result.update(
        attempted=passes * len(first),
        failed=len(failures),
        unexpected=[f"{label}: {'; '.join(errs[:3])}" for label, kept, errs in failures.values() if not kept],
        kept=sorted({label for label, kept, _ in failures.values() if kept}),
        times=times,
        passes=passes,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
