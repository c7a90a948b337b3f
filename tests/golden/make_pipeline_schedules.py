"""Write the golden 1F1B schedule corpus ``pipeline_schedules.json``.

Each case is one :func:`repro.parallel.simulate_pipeline` call drawn
from a fixed seed: pipeline depth 1-9, 1-24 microbatches, uniform,
integer-tied, heterogeneous and zero-length stage/link times, and all
16 combinations of ``blocking_sends``, ``prefer_backward``,
``bound_in_flight`` and ``link_contention``. The record holds everything
a schedule is: makespan, every task in completion order, peak in-flight
forwards, link busy time, link windows and the number of engine events.

``tests/test_pipeline_golden.py`` replays every case and asserts ``==``.
Regenerate only when a schedule is meant to change::

    PYTHONPATH=src python tests/golden/make_pipeline_schedules.py
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

from repro.obs import MetricsRegistry, observed
from repro.parallel import simulate_pipeline

OUT = Path(__file__).with_name("pipeline_schedules.json")
SEED = 1402
N_RANDOM = 288
FLAGS = ("blocking_sends", "prefer_backward", "bound_in_flight", "link_contention")

#: hand-picked edges the random draw may miss: one stage, one microbatch,
#: all-zero work, the deepest pipeline at the most microbatches
EDGE_CASES = (
    {"g_inter": 1, "n_microbatches": 1, "t_f_stage": 1.0, "t_b_stage": 2.0, "msg_time": 0.0},
    {"g_inter": 1, "n_microbatches": 24, "t_f_stage": [0.0], "t_b_stage": [0.0], "msg_time": 0.0},
    {"g_inter": 9, "n_microbatches": 1, "t_f_stage": 1.0, "t_b_stage": 1.0, "msg_time": 1.0},
    {"g_inter": 9, "n_microbatches": 24, "t_f_stage": 1.0, "t_b_stage": 2.0, "msg_time": 0.5},
    {"g_inter": 4, "n_microbatches": 8, "t_f_stage": 0.0, "t_b_stage": 0.0, "msg_time": 0.0},
    {"g_inter": 3, "n_microbatches": 5, "t_f_stage": 1.0, "t_b_stage": 2.0, "msg_time": 3.0},
)


def _times(rng: random.Random, style: str, n: int) -> "float | list[float]":
    if style == "uniform":
        return float(rng.choice((0.5, 1.0, 2.0, 3.0)))
    if style == "tied":
        return [float(rng.randint(0, 3)) for _ in range(n)]
    if style == "hetero":
        return [rng.uniform(0.05, 3.0) for _ in range(n)]
    # "sparse": mostly heterogeneous, some stages or links of zero length
    return [0.0 if rng.random() < 0.3 else rng.uniform(0.05, 3.0) for _ in range(n)]


def cases() -> list[dict]:
    """The corpus inputs: edge cases under every flag combination, then
    ``N_RANDOM`` seeded draws cycling through the combinations."""
    rng = random.Random(SEED)
    combos = list(itertools.product((False, True), repeat=len(FLAGS)))
    out = []
    for i, base in enumerate(EDGE_CASES):
        out.append({**base, **dict(zip(FLAGS, combos[(5 * i) % len(combos)]))})
    for i in range(N_RANDOM):
        g = rng.randint(1, 9)
        # one draw in four spans the full microbatch range; the rest stay
        # short to keep the corpus small
        m = rng.randint(1, 24) if i % 4 == 0 else rng.randint(1, 10)
        styles = ("uniform", "tied", "hetero", "sparse")
        style = styles[(i // len(combos)) % len(styles)]
        out.append({
            "g_inter": g,
            "n_microbatches": m,
            "t_f_stage": _times(rng, style, g),
            "t_b_stage": _times(rng, style, g),
            "msg_time": _times(rng, rng.choice(styles), g - 1) if g > 1 else 0.0,
            **dict(zip(FLAGS, combos[i % len(combos)])),
        })
    return out


def record(args: dict) -> dict:
    """Run one case and return its schedule as JSON-ready data."""
    registry = MetricsRegistry()
    with observed(metrics=registry):
        trace = simulate_pipeline(**args)
    return {
        "makespan": trace.makespan,
        "tasks": [[t.gpu, t.kind, t.microbatch, t.start, t.end] for t in trace.tasks],
        "peak_in_flight": list(trace.peak_in_flight),
        "link_busy": list(trace.link_busy),
        "link_windows": [[list(w) for w in windows] for windows in trace.link_windows],
        "events": registry.snapshot()["events.processed"],
    }


def main() -> None:
    corpus = [{"args": args, **record(args)} for args in cases()]
    # one case per line keeps a changed schedule's diff readable
    lines = ",\n".join(json.dumps(case, separators=(",", ":")) for case in corpus)
    OUT.write_text(f'{{"seed":{SEED},"cases":[\n{lines}\n]}}\n')
    print(f"wrote {len(corpus)} cases to {OUT}")


if __name__ == "__main__":
    main()
