"""Exact counts: a fixed seed yields identical per-layer counts run to run.

Later changes cite ``kernel.*.cells``, ``engine.events`` and the store's
hits, misses and evictions to show where time moved, so these counts
must not depend on timing. The traced run replays a fixed number of
rounds (derived from ``--seconds``) with one request outstanding on
serve-churn and sim-cold, which makes them exact. Wire bytes are left
out: plan answers carry ``stats.wall_seconds``.

Not collected by default (the file name does not match ``test_*.py``);
run it explicitly::

    python3 -m pytest perfbench/check_exact_counts.py -q
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
EXACT = ("kernel.analytic.cells", "kernel.analytic-batch.cells", "kernel.sim.cells",
         "kernel.measured.cells", "engine.events", "store.evictions")


def traced_counts(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, timeout=600, cwd=RUN.parent.parent,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    counts = {name: result["metrics"][name]["value"] for name in EXACT}
    store = next(line for line in lines if line.startswith("traced store delta: "))
    counts.update(json.loads(re.sub(r"^traced store delta: ", "", store)))
    return counts


@pytest.mark.parametrize("workload, seconds", [("serve-churn", 6), ("sim-cold", 4)])
def test_counts_repeat_exactly(workload, seconds):
    first = traced_counts(workload, seed=11, seconds=seconds)
    second = traced_counts(workload, seed=11, seconds=seconds)
    assert first == second
    cells = sum(first[f"kernel.{k}.cells"] for k in ("analytic", "analytic-batch", "sim", "measured"))
    assert cells > 0 and first["misses"] > 0
    assert (first["engine.events"] > 0) == (workload == "sim-cold")
