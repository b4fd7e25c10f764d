"""Regenerate the CLI rows of the ROADMAP baseline table.

    python3 bench/baseline.py

Times each command once as a fresh `python -m quivrep` subprocess (wall time
and peak RSS of the child) from the root of a checkout.  These are single large
commands, not the steady workloads of run.py; the longest is e8tilde jordan:6,
about a minute.  The opmodel sweep stops at n = 16
(about 0.5 GB): n = 20 needs 1.2 GB, and the README's n = 32 example an
estimated 6 GB.
"""

from __future__ import annotations

import os
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

OPMODEL = ["opmodel", "--pair", "shift-rank-one", "--lambda", "seq:reciprocal", "--w", "seq:reciprocal",
           "--density", "--four-subspace", "--phi"]
COMMANDS = [
    ["verify", "--suite", "all", "--seed", "7"],
    ["build", "--family", "e8tilde", "--op", "jordan:4"],
    ["build", "--family", "e8tilde", "--op", "jordan:6"],
    OPMODEL + ["--n", "8"],
    OPMODEL + ["--n", "12"],
    OPMODEL + ["--n", "16"],
]


def time_command(argv: list[str], env: dict) -> tuple[float, float, int]:
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "quivrep", *argv], cwd=ROOT, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return perf_counter() - start, usage.ru_maxrss / 1024.0, proc.returncode


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))
    time_command(["verify", "--suite", "reflection"], env)  # untimed: compiles .pyc, wakes the caches
    print("| command | wall s | peak RSS MB | exit |")
    print("| --- | --- | --- | --- |")
    for argv in COMMANDS:
        wall, rss, code = time_command(argv, env)
        print(f"| `quivrep {' '.join(argv)}` | {wall:.2f} | {rss:.0f} | {code} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
