"""Ablation: AxoNN's pipeline scheduling optimizations (paper Section II-E).

AxoNN's inter-layer engine wins over synchronous pipelines through two
mechanisms the paper names explicitly: (i) *asynchronous messaging* —
senders never block on the transport — and (ii) *message-driven 1F1B
scheduling* — backward work is preferred and in-flight forwards are
bounded, capping activation memory at ``G_inter - stage`` microbatches.
The batch-time simulator encodes the net effect as a calibrated
DeepSpeed p2p penalty; this ablation derives the behaviour from first
principles with the event-driven scheduler, pricing each flag
separately on a Figure-3-shaped workload.
"""

import pytest

from repro.parallel import simulate_pipeline
from repro.reporting import render_table

G_INTER = 8
MICROBATCHES = 32
T_F, T_B = 1.0, 2.0
MSG = 0.25  # exposed per-message transfer, in forward-pass units


def test_ablation_scheduling_policies(report):
    policies = {
        "AxoNN (async + 1F1B)": {},
        "blocking sends": {"blocking_sends": True},
        "FIFO (no bwd preference)": {"prefer_backward": False},
        "blocking + FIFO (sync pipeline)": {"blocking_sends": True, "prefer_backward": False},
        "GPipe-style (unbounded fwds)": {"prefer_backward": False, "bound_in_flight": False},
    }
    rows = []
    results = {}
    for label, kw in policies.items():
        tr = simulate_pipeline(G_INTER, MICROBATCHES, T_F, T_B, msg_time=MSG, **kw)
        results[label] = tr
        rows.append({
            "policy": label,
            "makespan": f"{tr.makespan:.1f}",
            "mean idle": f"{tr.mean_idle_time():.1f}",
            "peak activations (stage 0)": tr.peak_in_flight[0],
        })
    report(
        "ablation_scheduling",
        render_table(
            rows,
            title=f"Pipeline scheduling, G_inter={G_INTER}, m={MICROBATCHES}, "
                  f"t_b=2t_f, msg={MSG}",
        ),
    )
    axonn = results["AxoNN (async + 1F1B)"]
    # (i) asynchronous messaging: blocking the sender must cost makespan.
    assert axonn.makespan < results["blocking sends"].makespan
    assert axonn.makespan < results["blocking + FIFO (sync pipeline)"].makespan
    # (ii) 1F1B bounds activation memory at G_inter; GPipe-style grows to
    # m. The bound costs some makespan (warmup throttling) — the classic
    # memory-for-time trade — but stays within ~20% while cutting peak
    # activations 4x on this workload.
    assert axonn.peak_in_flight[0] == G_INTER
    gpipe = results["GPipe-style (unbounded fwds)"]
    assert gpipe.peak_in_flight[0] == MICROBATCHES
    assert axonn.makespan <= 1.2 * gpipe.makespan


def test_ablation_message_cost_sensitivity(report):
    """The async advantage scales with message cost: at msg=0 the policies
    tie; as messages grow, the synchronous pipeline pays ~2 messages per
    microbatch per stage of extra critical path."""
    rows = []
    gaps = []
    for msg in (0.0, 0.1, 0.25, 0.5, 1.0):
        a = simulate_pipeline(G_INTER, MICROBATCHES, T_F, T_B, msg_time=msg)
        s = simulate_pipeline(
            G_INTER, MICROBATCHES, T_F, T_B, msg_time=msg,
            blocking_sends=True, prefer_backward=False,
        )
        gap = s.makespan / a.makespan
        gaps.append(gap)
        rows.append({
            "msg cost": msg,
            "AxoNN makespan": f"{a.makespan:.1f}",
            "sync pipeline makespan": f"{s.makespan:.1f}",
            "penalty": f"{gap:.3f}x",
        })
    report(
        "ablation_scheduling_msg_cost",
        render_table(rows, title="Sync-pipeline penalty vs message cost"),
    )
    assert gaps[0] == pytest.approx(1.0)
    assert all(b >= a - 1e-9 for a, b in zip(gaps, gaps[1:]))  # monotone
    assert gaps[-1] > 1.02  # real penalty once messages cost real time
    # Note: the schedule mechanics alone explain a few percent; the
    # calibrated deepspeed_p2p_penalty (1.30) additionally absorbs
    # implementation overheads (synchronous NCCL p2p handshakes, no
    # compute overlap) that the pure event schedule does not model.


def test_bench_pipeline_simulation(benchmark, cold_simulate_pipeline):
    # every timed call runs the kernel (the schedule memo is cleared first)
    benchmark(
        cold_simulate_pipeline, G_INTER, MICROBATCHES, T_F, T_B, msg_time=MSG
    )
