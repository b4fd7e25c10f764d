"""Golden CLI reports: every subcommand on fixed inputs, compared with stored output.

Each file in tests/golden/ holds the argv, the exit code and the report of one
`cli.run` call made from inside tests/golden/ (so input paths stay relative).
JSON reports are stored parsed, text reports as their stdout.  A command that
writes to stderr, as the failing ones (`fail-*`) do, also stores that text, so
a success that starts to warn and a failure that changes its message both
show.  The comparison:

- leaves that are neither strings nor floats match exactly;
- float leaves, and numbers embedded in strings (rep text, witness text,
  check details), match within 1e-9 * max(1, |x|);
- the text around the numbers matches exactly.

Run this module as a script to regenerate the files:

    PYTHONPATH=src python tests/test_golden.py

It rewrites only the files whose stored record fails the comparison, so
roundoff-level drift alone leaves the files as they are.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
from pathlib import Path

import pytest

from quivrep import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    "verify-all-text": ["verify", "--suite", "all", "--seed", "7", "--trials", "3"],
    "verify-all-json": ["verify", "--suite", "all", "--seed", "7", "--trials", "3", "--format", "json"],
    "verify-operator-json": ["verify", "--suite", "operator", "--format", "json"],
    "analyze-jordan-text": ["analyze", "inputs/kron-jordan.txt"],
    "analyze-split-json": ["analyze", "inputs/kron-split.txt", "--format", "json"],
    "reflect-plus-star": ["reflect", "inputs/star.txt", "--vertex", "5", "--dir", "plus",
                          "--verify-end-iso", "--format", "json"],
    "reflect-plus-kronecker": ["reflect", "inputs/kron-random.txt", "--vertex", "2", "--dir", "plus",
                               "--verify-end-iso", "--format", "json"],
    "reflect-minus-kronecker": ["reflect", "inputs/kron-random.txt", "--vertex", "1", "--dir", "minus",
                                "--verify-end-iso", "--format", "json"],
    "reflect-minus-text": ["reflect", "inputs/kron-split.txt", "--vertex", "1", "--dir", "minus"],
    "build-d4tilde": ["build", "--family", "d4tilde", "--op", "jordan:3", "--format", "json"],
    "build-e6tilde-file": ["build", "--family", "e6tilde", "--op", "file:inputs/op.txt", "--format", "json"],
    "build-e7tilde-text": ["build", "--family", "e7tilde", "--op", "jordan:2:0.5"],
    "build-e8tilde-json": ["build", "--family", "e8tilde", "--op", "jordan:2", "--format", "json"],
    # a diagonal operator: the reduced End system splits into 9 blocks of 16 columns
    "build-e7tilde-diag3": ["build", "--family", "e7tilde", "--op", "file:inputs/op-diag3.txt", "--format", "json"],
    "build-antilde": ["build", "--family", "antilde", "--op", "jordan:2", "--format", "json"],
    "cycle-json": ["cycle", "inputs/cycle.txt", "--format", "json"],
    "opmodel-shift-rank-one": ["opmodel", "--pair", "shift-rank-one", "--lambda", "seq:reciprocal",
                               "--w", "seq:one-minus-pow:2", "--n", "5", "--density", "--four-subspace",
                               "--phi", "--format", "json"],
    "opmodel-bilateral-text": ["opmodel", "--pair", "bilateral", "--lambda", "seq:exp-neg-pow:3:even",
                               "--w", "seq:exp-neg-pow:3:odd", "--n", "2", "--density", "--four-subspace",
                               "--phi"],
    "fail-missing-file": ["analyze", "inputs/missing.txt"],
    "fail-reflect-not-a-sink": ["reflect", "inputs/kron-random.txt", "--vertex", "1", "--dir", "plus"],
    "fail-reflect-unknown-vertex": ["reflect", "inputs/kron-random.txt", "--vertex", "9", "--dir", "plus"],
    "fail-build-infinite-eigenvalue": ["build", "--family", "d4tilde", "--op", "jordan:2:inf"],
    "fail-opmodel-nan-weight": ["opmodel", "--pair", "bilateral", "--lambda", "seq:const:nan",
                                "--w", "seq:const:1", "--n", "2"],
    "fail-cycle-not-a-cycle": ["cycle", "inputs/star.txt"],
}

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def run_command(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    finally:
        os.chdir(cwd)
    stdout = out.getvalue()
    record = {"argv": argv, "exit_code": code}
    if "json" in argv:
        record["report"] = json.loads(stdout)
    else:
        record["stdout"] = stdout
    if err.getvalue():
        record["stderr"] = err.getvalue()
    return record


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= 1e-9 * max(1.0, abs(x))


def mismatches(got, want, path="") -> list[str]:
    """Where `got` differs from `want` under the golden comparison rules."""
    if isinstance(want, dict) and isinstance(got, dict):
        if sorted(got) != sorted(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and type(got) in (int, float):
        return [] if _close(got, want) else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, str) and isinstance(got, str):
        if _NUMBER.split(got) != _NUMBER.split(want):
            return [f"{path}: text around the numbers differs"]
        pairs = zip(_NUMBER.findall(got), _NUMBER.findall(want))
        bad = [(g, w) for g, w in pairs if not _close(float(g), float(w))]
        return [f"{path}: numbers {g} != {w}" for g, w in bad]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_report_matches_golden(name):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    got = run_command(COMMANDS[name])
    assert got["argv"] == want["argv"]
    assert mismatches(got, want) == []


def test_comparison_tolerates_only_small_numeric_changes():
    assert mismatches({"x": 1.0, "s": "v=0.5 k=2"}, {"x": 1.0 + 1e-12, "s": "v=0.5000000000001 k=2"}) == []
    assert mismatches({"x": 1.1}, {"x": 1.0})
    assert mismatches({"s": "v=0.6"}, {"s": "v=0.5"})
    assert mismatches({"s": "w=0.5"}, {"s": "v=0.5"})
    assert mismatches({"b": 1}, {"b": True})


if __name__ == "__main__":
    for name, argv in COMMANDS.items():
        record = run_command(argv)
        path = GOLDEN / f"{name}.json"
        if path.exists() and not mismatches(record, json.loads(path.read_text())):
            print(f"{name}: exit {record['exit_code']}, unchanged")
            continue
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"{name}: exit {record['exit_code']}, rewritten")
