"""Do two sets of runs of the same code agree within BENCHMARK.json's bounds?

    python3 bench/steady.py                              # every workload
    python3 bench/steady.py --workloads four-subspace --seed0 7000

For each workload it makes two sets of ten runs of BENCHMARK.json's run
length, one set after the other, every run with its own seed.  For each
end-to-end metric it prints, per set, the median and the spread (distance
between the first and third quartile over the median, from
statistics.quantiles(n=4)), and then whether

- every spread, setup_s's included, stays within the metric's bound,
- the two sets' medians differ by no more than the bound, in either
  direction: identical code has to agree both ways,
- the share of failed operations is exactly the same in both sets.

Results go to bench/out/steady-*.json as well.  Exit code 0 when everything
agrees.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
RUNS = 10


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seed0", type=int, default=1000)
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]

    ok = True
    runs: dict = {}
    report: dict = {}
    for w in workloads:
        sets = runs[w] = [[] for _ in range(SETS)]
        for s in range(SETS):
            for i in range(RUNS):
                seed = args.seed0 + 100 * s + i
                start = time.monotonic()
                res = one_run(w, seed, bench["run_seconds"])
                sets[s].append(res)
                print(f"set {s + 1} {w} seed {seed}: {time.monotonic() - start:.1f} s wall, "
                      f"correct={res['correct']} failed={res['failed']}/{res['attempted']}", file=sys.stderr)

        shares = {Fraction(r["failed"], r["attempted"]) for rs in sets for r in rs}
        correct = all(r["correct"] for rs in sets for r in rs)
        ok &= len(shares) == 1 and correct
        print(f"\n{w}: correct={correct} failed shares {sorted(str(x) for x in shares)} -> "
              f"{'same share' if len(shares) == 1 else 'SHARE DIFFERS'}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            vals = [[r["metrics"][name]["value"] for r in rs] for rs in sets]
            meds = [statistics.median(v) for v in vals]
            spreads = [spread(v) for v in vals]
            shift = (meds[1] - meds[0]) / meds[0]
            good = all(sp <= bound for sp in spreads) and abs(shift) <= bound
            ok &= good
            report.setdefault(w, {})[name] = {"medians": meds, "spreads": spreads, "shift": shift,
                                              "bound": bound, "ok": good}
            cells = "  ".join(f"set{k + 1} med {meds[k]:.5g} spread {spreads[k]:.3f}" for k in range(SETS))
            print(f"  {name:16s} bound {bound:.2f}  {cells}  shift {shift:+.3f}  {'ok' if good else 'OUT OF BOUND'}",
                  flush=True)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "report": report, "runs": runs}, fh, indent=1)
    print(f"\n{'all agree' if ok else 'NOT STEADY'}; details in {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
