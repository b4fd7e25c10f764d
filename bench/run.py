"""quivrep benchmark: one workload, one seed, one JSON result.

    python3 bench/run.py --workload dynkin-end --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The work happens in fresh interpreters
(bench/worker.py) that import quivrep from ``src``; this process only starts
them, reads their results and prints the metrics.  With ``--trace 0`` the last
line holds the end-to-end metrics, with ``--trace 1`` the per-layer metrics of
a traced run.  A line before it records the platform.  Exit code 0 means the
run finished; ``correct`` says whether every output passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("dynkin-end", "four-subspace", "reflect-small", "cli-mix")

END_TO_END_UNITS = {
    "setup_s": "s",
    "problems_per_s": "1/s",
    "problem_s.p50": "s",
    "peak_rss_mb": "MB",
}

# Fresh interpreters timed for setup_s, half before the main worker (after one
# untimed launch) and half after it, so that the samples span the whole run
# rather than its first seconds; the main worker's own launch is one more.
SETUP_LAUNCHES = 8
# Every run must end within this many seconds.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    # one process generates all load, with no more BLAS threads than cores
    env.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def launch(args: list[str], env: dict):
    """Start a worker; return (seconds from launch to its 'ready' line, process)."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not get ready (exit code {proc.returncode})")
    return ready, proc


def finish(proc, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker failed with exit code {proc.returncode}")
    return out


def run(args) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "quivrep", "__init__.py")):
        raise BenchError(f"no quivrep sources under {os.path.join(ROOT, 'src')}")
    t0 = perf_counter()
    env = child_env()
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    def setup_launch() -> float:
        ready, proc = launch(base + ["--setup-only"], env)
        finish(proc, DEADLINE_S - (perf_counter() - t0))
        return ready

    setup_launch()  # untimed warm-up
    setup = [setup_launch() for _ in range(SETUP_LAUNCHES // 2)]
    ready, proc = launch(base + ["--seconds", str(args.seconds), "--trace", str(args.trace)], env)
    setup.append(ready)
    out = finish(proc, DEADLINE_S - (perf_counter() - t0))
    setup += [setup_launch() for _ in range(SETUP_LAUNCHES - SETUP_LAUNCHES // 2)]
    result = json.loads(out.strip().splitlines()[-1])
    result["env"].update(nproc=len(os.sched_getaffinity(0)), platform=platform.platform(),
                         openblas_num_threads=env["OPENBLAS_NUM_THREADS"])
    result["setup_samples"] = setup
    return result


def metrics_of(result: dict, trace: bool) -> dict:
    if trace:
        from tracing import LAYER_UNITS

        return {name: {"value": float(result["layers"][name]), "unit": unit} for name, unit in LAYER_UNITS.items()}
    times = result["times"]
    values = {
        "setup_s": statistics.median(result["setup_samples"]),
        "problems_per_s": len(times) / sum(times),
        "problem_s.p50": statistics.median(times),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="timed problem seconds per run (whole passes)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args)
    except (BenchError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    line = {
        "correct": not result["unexpected"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics_of(result, bool(args.trace)),
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({**line, **{k: result[k] for k in ("env", "setup_samples", "unexpected", "kept", "passes")},
                   "problem_times": result["times"]}, fh, indent=1)
    for msg in result["unexpected"]:
        print(f"unexpected failure: {msg}", file=sys.stderr)
    print(json.dumps({"env": result["env"], "kept_failures": result["kept"]}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
