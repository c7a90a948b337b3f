"""Batch pricing engine vs the scalar dispatch loop (Figures 6-8 spaces).

The ``analytic-batch`` estimator prices the whole candidate grid × scenario
set as one set of numpy array programs. This bench times the *pricing
stage* — the part the ISSUE vectorizes — head to head on the paper's
search spaces: the scalar baseline dispatches ``evaluate`` per cell (per
scenario column via ``with_scenario``, exactly what the session's search
loop did before batch support), the batch path makes ONE ``evaluate_batch``
call. Parity of every cell is pinned separately in
``tests/test_batch_eval.py``; here we pin the speedup:

* every workload must clear the 5x CI floor;
* the config × scenario matrix rows — the shape ``robust_plan`` prices —
  must demonstrate the >= 10x the batch engine was built for.

Best-of-5 timing keeps the numbers stable under CI noise.
"""

import time

from repro.api.scenario_set import get_scenario_set
from repro.autotune import VectorizedAnalyticEstimator
from repro.autotune.space import SearchSpace
from repro.models import get_spec
from repro.reporting import render_table

#: (model, n_gpus, scenario set) — Fig. 6 spaces single-column, then the
#: robust-planning matrices (grid × scenario columns) for Fig. 6/8 subjects
WORKLOADS = (
    ("gpt3-xl", 64, "neutral"),
    ("gpt3-2.7b", 128, "neutral"),
    ("gpt3-2.7b", 512, "neutral"),
    ("gpt3-xl", 64, "hierarchical-mixed"),
    ("gpt3-2.7b", 128, "collective-degraded"),
)

CI_FLOOR = 5.0
MATRIX_TARGET = 10.0


def _best_of(fn, repeats=5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t)
    return best


def test_batch_pricing_speedup(report):
    rows = []
    matrix_speedups = []
    for model, n_gpus, set_name in WORKLOADS:
        spec = get_spec(model)
        configs = list(SearchSpace(spec, n_gpus).candidates())
        columns = get_scenario_set(set_name).scenarios
        est = VectorizedAnalyticEstimator(spec)

        def scalar_loop():
            for sc in columns:
                cell = est.with_scenario(sc)
                for c in configs:
                    cell.evaluate(c)

        def batch_call():
            est.evaluate_batch(configs, columns)

        t_scalar = _best_of(scalar_loop)
        t_batch = _best_of(batch_call)
        speedup = t_scalar / t_batch
        n_cells = len(configs) * len(columns)
        rows.append({
            "model": model,
            "GPUs": n_gpus,
            "scenario set": set_name,
            "cells": n_cells,
            "scalar (ms)": round(t_scalar * 1e3, 2),
            "batch (ms)": round(t_batch * 1e3, 2),
            "speedup": round(speedup, 1),
        })
        assert speedup >= CI_FLOOR, (
            f"{model}@{n_gpus} x {set_name}: {speedup:.1f}x < {CI_FLOOR}x floor"
        )
        if len(columns) > 1:
            matrix_speedups.append(speedup)

    assert max(matrix_speedups) >= MATRIX_TARGET, (
        f"no matrix workload reached {MATRIX_TARGET}x: {matrix_speedups}"
    )
    report(
        "bench_batch_eval",
        render_table(
            rows,
            title=(
                "Pricing stage: scalar evaluate() loop vs one evaluate_batch() "
                f"(best of 5; CI floor {CI_FLOOR:.0f}x, matrix target "
                f">= {MATRIX_TARGET:.0f}x)"
            ),
        ),
    )
