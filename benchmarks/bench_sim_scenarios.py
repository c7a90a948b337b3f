"""Heterogeneous pipeline engine — scenario sweep and uniform-limit check.

Two jobs:

1. verify the heterogeneity-aware engine *degenerates exactly* to the
   paper's Eq. 6-7 bubble in the uniform-stage, free-message limit
   (the correctness anchor for every scenario built on top);
2. report how each named scenario preset distorts the same baseline
   pipeline — the scenario-diversity counterpart of Figure 3.
"""

import pytest

from repro.parallel import SCENARIOS, bubble_time, run_scenario, simulate_pipeline
from repro.reporting import render_table


@pytest.mark.parametrize(
    "g,m,tf,tb",
    [(2, 4, 1.0, 2.0), (3, 5, 1.0, 2.0), (4, 8, 0.02, 0.06), (8, 32, 0.013, 0.039)],
)
def test_uniform_limit_matches_eq7_exactly(g, m, tf, tb):
    """Per-stage sequences with equal entries and zero-cost links must
    reproduce (G_inter - 1)(t_f + t_b) on every GPU to float tolerance."""
    trace = simulate_pipeline(g, m, [tf] * g, [tb] * g, msg_time=[0.0] * (g - 1))
    eq7 = bubble_time(g, tf * g, tb * g)
    for gpu in range(g):
        assert trace.idle_time(gpu) == pytest.approx(eq7, rel=1e-12)
    # and the makespan decomposes into ideal compute + the Eq. 7 bubble
    assert trace.makespan == pytest.approx(m * (tf + tb) + eq7, rel=1e-12)


def test_scenario_sweep(report):
    g, m, tf, tb = 4, 8, 1.0, 2.0
    rows = []
    for name in sorted(SCENARIOS):
        trace, info = run_scenario(name, g_inter=g, n_microbatches=m, t_f=tf, t_b=tb)
        rows.append({
            "scenario": name,
            "makespan (s)": round(trace.makespan, 2),
            "mean idle (s)": round(info["mean_idle"], 2),
            "max idle (s)": round(info["max_idle"], 2),
            "Eq.7 bubble (s)": round(info["eq7_bubble"], 2),
            "exposed vs ideal (s)": round(trace.makespan - m * (tf + tb), 2),
        })
    text = render_table(
        rows,
        title=(
            f"Heterogeneity scenarios, G_inter={g}, m={m}, "
            f"t_f={tf:g}, t_b={tb:g} (uniform baseline)"
        ),
    )
    report("sim_scenarios", text)
    by_name = {r["scenario"]: r for r in rows}
    # the uniform preset is the degenerate anchor; every distortion costs
    assert by_name["uniform"]["mean idle (s)"] == by_name["uniform"]["Eq.7 bubble (s)"]
    for name in ("straggler", "slow-link", "skewed", "contention"):
        assert by_name[name]["makespan (s)"] >= by_name["uniform"]["makespan (s)"]


def test_bench_hetero_pipeline(benchmark, cold_simulate_pipeline):
    """Engine throughput with per-stage times, per-link delays, and
    contention on (16 stages x 128 microbatches = 4k tasks); every timed
    call runs the kernel."""
    g = 16
    tf = [0.01 * (1 + 0.05 * i) for i in range(g)]
    tb = [3 * t for t in tf]
    links = [0.002 if (i + 1) % 6 else 0.008 for i in range(g - 1)]
    tr = benchmark(
        cold_simulate_pipeline, g, 128, tf, tb, msg_time=links, link_contention=True
    )
    assert tr.makespan > 0
