"""Golden pins for the 1F1B kernel behind ``simulate_pipeline``.

``tests/golden/pipeline_schedules.json`` holds seeded schedules recorded
from the engine before its rewrite as one tuple-heap loop (see
``tests/golden/make_pipeline_schedules.py`` for the draw): pipeline
depth 1-9, 1-24 microbatches, uniform, integer-tied, heterogeneous and
zero-length stage/link times, and every combination of the four
scheduling flags. Every task, link window, peak and event count must
match with ``==``: the kernel pushes its events in the order the old
engine did, so pops, tie-breaks and float sums are identical.
"""

import json
from pathlib import Path

import pytest

from repro.obs import MetricsRegistry, Tracer, observed
from repro.parallel import simulate_pipeline

CORPUS = json.loads(
    (Path(__file__).parent / "golden" / "pipeline_schedules.json").read_text()
)["cases"]


def _run(args: dict, tracer: Tracer | None = None) -> tuple[dict, MetricsRegistry]:
    registry = MetricsRegistry()
    with observed(tracer=tracer, metrics=registry):
        trace = simulate_pipeline(**args)
    schedule = {
        "makespan": trace.makespan,
        "tasks": [[t.gpu, t.kind, t.microbatch, t.start, t.end] for t in trace.tasks],
        "peak_in_flight": list(trace.peak_in_flight),
        "link_busy": list(trace.link_busy),
        "link_windows": [[list(w) for w in windows] for windows in trace.link_windows],
        "events": registry.snapshot()["events.processed"],
    }
    return schedule, registry


def _case_id(case: dict) -> str:
    a = case["args"]
    flags = "".join(
        "1" if a[f] else "0"
        for f in ("blocking_sends", "prefer_backward", "bound_in_flight", "link_contention")
    )
    return f"G{a['g_inter']}-m{a['n_microbatches']}-{flags}"


def test_corpus_covers_every_flag_combination_and_size():
    combos = {
        tuple(c["args"][f] for f in (
            "blocking_sends", "prefer_backward", "bound_in_flight", "link_contention"
        ))
        for c in CORPUS
    }
    assert len(combos) == 16
    assert {c["args"]["g_inter"] for c in CORPUS} == set(range(1, 10))
    sizes = {c["args"]["n_microbatches"] for c in CORPUS}
    assert min(sizes) == 1 and max(sizes) == 24


@pytest.mark.parametrize(
    "case", CORPUS, ids=[f"{i:03d}-{_case_id(c)}" for i, c in enumerate(CORPUS)]
)
def test_schedule_matches_golden(case):
    schedule, _ = _run(case["args"])
    expected = {k: v for k, v in case.items() if k != "args"}
    assert schedule == expected


def test_traced_run_emits_one_event_span_per_processed_event():
    # a contended, blocking, heterogeneous case: all four event kinds
    case = next(
        c for c in CORPUS
        if c["args"]["blocking_sends"] and c["args"]["link_contention"]
        and c["args"]["g_inter"] >= 3 and c["args"]["n_microbatches"] >= 4
    )
    tracer = Tracer()
    schedule, registry = _run(case["args"], tracer)
    assert schedule == {k: v for k, v in case.items() if k != "args"}

    events = [s for s in tracer.spans if s.category == "event"]
    assert len(events) == case["events"] == registry.snapshot()["events.processed"]
    assert {s.track for s in events} == {"events#0"}
    assert {s.name for s in events} == {"start", "compute_done", "arrive", "release"}
    assert all(s.start == s.end for s in events)
    order = [(s.start, dict(s.attrs)["seq"]) for s in events]
    # popped in (time, seq) order, every pushed event exactly once
    assert order == sorted(order) and len(set(order)) == len(order)
    assert sorted(seq for _, seq in order) == list(range(len(events)))
