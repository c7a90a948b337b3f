"""Figure 3 — inter-layer parallel pipeline schedule illustration.

Regenerates the exact configuration of the paper's figure: G_inter = 3,
five microbatches, backward = 2x forward. The per-GPU bubble must equal
(G_inter - 1) forward + backward passes = 6 time units.
"""

import pytest

from repro.parallel import simulate_pipeline


def test_figure3_schedule(report):
    tr = simulate_pipeline(3, 5, 1.0, 2.0)
    art = tr.ascii(1.0)
    lines = [
        "Figure 3: G_inter=3, 5 microbatches, t_b = 2 t_f",
        "(numbers = forward, [n] = backward, . = bubble)",
        "",
        art,
        "",
        f"makespan: {tr.makespan:.0f} units",
    ]
    for g in range(3):
        lines.append(
            f"GPU {g}: busy={tr.busy_time(g):.0f}  bubble={tr.idle_time(g):.0f} "
            f"(paper: 6 = (G_inter-1)*(t_f+t_b))"
        )
    report("fig3_pipeline_schedule", "\n".join(lines))
    for g in range(3):
        assert tr.idle_time(g) == pytest.approx(6.0)


def test_bench_pipeline_simulation(benchmark, cold_simulate_pipeline):
    """Event-simulator throughput on a large pipeline (32 stages x 256
    microbatches = 16k tasks); every timed call runs the kernel."""
    tr = benchmark(cold_simulate_pipeline, 32, 256, 0.01, 0.03)
    assert tr.makespan > 0
