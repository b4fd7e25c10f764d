"""The names that the benchmark's workers call exist in quivrep.

The bench workers call the package as `q.<module>.<name>`; a name deleted from
quivrep would otherwise show only as a crashed benchmark run.  The names that
bench/tracing.py wraps are checked by `test_entry_points.py::test_traced_functions_resolve`.
This test reads bench/ and changes nothing there.
"""

import importlib
import re
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_name_the_workloads_call_exists():
    used = {m.groups() for path in ("workloads.py", "worker.py")
            for m in re.finditer(r"\bq\.(\w+)\.(\w+)", (BENCH / path).read_text(encoding="utf-8"))}
    missing = [f"{m}.{n}" for m, n in sorted(used) if not hasattr(importlib.import_module(f"quivrep.{m}"), n)]
    assert len(used) > 20 and not missing
