"""The schedule memo behind ``simulate_pipeline``.

``SCHEDULE_CACHE`` answers a chain asked before from a slim summary and
re-derives its rows only when read. The contract under test:

* a hit equals a kernel run, field for field, on the golden corpus and
  on random chains over every flag combination, and counts the same
  ``events.processed``;
* every call gets a fresh trace, so mutating one never moves another;
* threads racing on one key get equal schedules;
* a traced session records the same spans with the memo warm or cold;
* inputs are validated before the lookup, so bad inputs always raise;
* the drain window the kernel records is the last backward task of each
  stage, as a scan of the rows finds it;
* the memo never holds more than its bound.
"""

import json
import sys
import threading
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Job, Machine, Session
from repro.autotune import EvaluationCache
from repro.obs import MetricsRegistry, observed
from repro.parallel import simulate_pipeline
from repro.parallel.pipeline import (
    SCHEDULE_CACHE,
    SCHEDULE_CACHE_ENTRIES,
    ScheduleCache,
    _kernel,
)

CORPUS = json.loads(
    (Path(__file__).parent / "golden" / "pipeline_schedules.json").read_text()
)["cases"]
FLAGS = ("blocking_sends", "prefer_backward", "bound_in_flight", "link_contention")


@pytest.fixture(autouse=True)
def cold_memo():
    SCHEDULE_CACHE.clear()
    yield
    SCHEDULE_CACHE.clear()


def _counted(args: dict):
    registry = MetricsRegistry()
    with observed(metrics=registry):
        trace = simulate_pipeline(**args)
    return trace, registry.snapshot()


def _schedule(trace) -> dict:
    return {
        "makespan": trace.makespan,
        "tasks": [[t.gpu, t.kind, t.microbatch, t.start, t.end] for t in trace.tasks],
        "peak_in_flight": list(trace.peak_in_flight),
        "link_busy": list(trace.link_busy),
        "link_windows": [[list(w) for w in windows] for windows in trace.link_windows],
    }


def test_every_golden_schedule_asked_twice_is_a_hit_equal_to_its_golden():
    for i, case in enumerate(CORPUS):
        expected = {k: v for k, v in case.items() if k != "args"}
        first, misses = _counted(case["args"])
        second, hits = _counted(case["args"])
        assert (misses.get("pipeline.cache.misses"), hits.get("pipeline.cache.hits")) == (1, 1), i
        assert second._schedule is None, i  # a hit carries no rows until read
        assert {**_schedule(second), "events": hits["events.processed"]} == expected, i
        assert misses["events.processed"] == expected["events"], i
        assert second == first, i


times = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.25])


@st.composite
def chains(draw):
    g = draw(st.integers(1, 5))
    return {
        "g_inter": g,
        "n_microbatches": draw(st.integers(1, 7)),
        "t_f_stage": draw(st.lists(times, min_size=g, max_size=g)),
        "t_b_stage": draw(st.lists(times, min_size=g, max_size=g)),
        "msg_time": draw(st.lists(times, min_size=g - 1, max_size=g - 1)),
        **dict(zip(FLAGS, draw(st.sampled_from(list(product((False, True), repeat=4)))))),
    }


@settings(max_examples=150, deadline=None)
@given(chains())
def test_a_hit_equals_a_kernel_run_field_for_field(args):
    SCHEDULE_CACHE.clear()
    ran, ran_counts = _counted(args)
    hit, hit_counts = _counted(args)
    assert hit_counts.get("pipeline.cache.hits") == 1
    assert hit_counts["events.processed"] == ran_counts["events.processed"]
    for name in (
        "g_inter", "n_microbatches", "makespan", "peak_in_flight", "t_f_stages",
        "t_b_stages", "link_times", "link_busy", "drain", "n_replicas",
        "slowest_replica", "task_rows", "window_rows", "tasks", "link_windows",
    ):
        assert getattr(hit, name) == getattr(ran, name), name
    assert repr(hit) == repr(ran)
    assert hit == ran
    assert hit.drain == _scanned_drain(ran)


def test_two_hits_are_distinct_traces():
    args = dict(g_inter=3, n_microbatches=4, t_f_stage=1.0, t_b_stage=2.0, msg_time=0.5)
    simulate_pipeline(**args)
    a, b = simulate_pipeline(**args), simulate_pipeline(**args)
    assert a is not b and a == b
    a.n_replicas, a.slowest_replica = 4, 2
    a.peak_in_flight.append(99)
    a.drain[0] = (-1.0, -1.0)
    c = simulate_pipeline(**args)
    assert (b.n_replicas, b.slowest_replica) == (c.n_replicas, c.slowest_replica) == (1, 0)
    assert b.peak_in_flight == c.peak_in_flight == [3, 2, 1]
    assert b.drain == c.drain and b.drain[0] != (-1.0, -1.0)


def test_threads_racing_on_one_key_get_equal_schedules():
    case = max(CORPUS, key=lambda c: c["args"]["g_inter"] * c["args"]["n_microbatches"])
    expected = {k: v for k, v in case.items() if k not in ("args", "events")}
    n = 8
    barrier = threading.Barrier(n)
    traces = [None] * n

    def ask(i):
        barrier.wait()
        traces[i] = simulate_pipeline(**case["args"])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for trace in traces:
        assert _schedule(trace) == expected
        assert trace == traces[0]


def test_a_traced_session_records_the_same_spans_warm_or_cold(tmp_path):
    job = Job(model="gpt3-xl", n_gpus=16, fidelity="sim", overlap=True)

    def virtual_spans() -> list:
        session = Session(Machine(), EvaluationCache(), trace_to=str(tmp_path / "t.json"))
        session.breakdown(job, scenario="straggler")
        spans = [s for s in session.tracer.spans if s.clock == "virtual"]
        assert {s.category for s in spans} >= {"event", "pipeline.forward", "allreduce.drain"}
        return spans

    cold = virtual_spans()
    assert len(SCHEDULE_CACHE) == 0  # traced runs bypass the memo
    Session(Machine(), EvaluationCache()).breakdown(job, scenario="straggler")
    assert len(SCHEDULE_CACHE) > 0
    assert virtual_spans() == cold


def test_a_hit_with_invalid_inputs_still_raises():
    simulate_pipeline(2, 3, [1.0, 1.0], [1.0, 2.0], [0.5])
    # the same five doubles, split differently across the three inputs
    with pytest.raises(ValueError, match="t_f_stage has 3 entries"):
        simulate_pipeline(2, 3, [1.0, 1.0, 1.0], [2.0], [0.5])
    with pytest.raises(ValueError, match="t_b_stage has 1 entries"):
        simulate_pipeline(2, 3, [1.0, 1.0], [1.0], [2.0, 0.5])
    with pytest.raises(ValueError, match="non-negative"):
        simulate_pipeline(2, 3, [1.0, -1.0], [1.0, 2.0], [0.5])
    with pytest.raises(ValueError, match=">= 1"):
        simulate_pipeline(2, 0, [1.0, 1.0], [1.0, 2.0], [0.5])


def _scanned_drain(trace) -> list:
    scanned = []
    for s in range(trace.g_inter):
        bwd = [t for t in trace.gpu_tasks(s) if t.kind == "B"]
        last = max(bwd, key=lambda t: t.end)
        scanned.append((last.start, last.end))
    return scanned


def test_drain_window_is_each_stages_last_backward_task():
    for i, case in enumerate(CORPUS):
        for trace in (simulate_pipeline(**case["args"]), simulate_pipeline(**case["args"])):
            assert trace.drain == _scanned_drain(trace), i


def test_rows_are_re_derived_quietly():
    args = dict(g_inter=4, n_microbatches=6, t_f_stage=1.0, t_b_stage=2.0, msg_time=0.25)
    simulate_pipeline(**args)
    hit, counts = _counted(args)
    assert counts["pipeline.cache.hits"] == 1 and hit._schedule is None
    registry = MetricsRegistry()
    with observed(metrics=registry):
        rows = hit.task_rows
    assert registry.snapshot() == {}
    assert rows == _kernel(4, 6, [1.0] * 4, [2.0] * 4, [0.25] * 3, False, True, True, False)[4]


def test_the_bound_holds():
    cache = ScheduleCache(max_entries=3)
    for k in "abcd":
        cache.put(k, k.upper())
    assert len(cache) == 3 and cache.get("a") is None
    assert cache.get("b") == "B"  # b is now the most recently used
    cache.put("e", "E")
    assert cache.get("c") is None and cache.get("b") == "B" and len(cache) == 3

    registry = MetricsRegistry()
    with observed(metrics=registry):
        for k in range(SCHEDULE_CACHE_ENTRIES + 5):
            simulate_pipeline(1, 1, float(k), 1.0)
        assert len(SCHEDULE_CACHE) == SCHEDULE_CACHE_ENTRIES
        simulate_pipeline(1, 1, float(SCHEDULE_CACHE_ENTRIES + 4), 1.0)  # newest: kept
        simulate_pipeline(1, 1, 0.0, 1.0)  # oldest: evicted
    counts = registry.snapshot()
    assert counts["pipeline.cache.hits"] == 1
    assert counts["pipeline.cache.misses"] == SCHEDULE_CACHE_ENTRIES + 6
