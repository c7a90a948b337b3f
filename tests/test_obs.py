"""Observability: tracer/metrics/export correctness and no-op parity.

The contract under test, in order of importance:

1. **Disabled is invisible** — with the default null tracer installed,
   every result (breakdowns, traces, overlap reports) is byte-identical
   to an enabled run's results; the goldens in ``test_api_golden.py``
   pin the absolute numbers, here we pin enabled == disabled directly.
2. **Spans are deterministic** — two identical runs under fresh tracers
   produce equal span sequences (the event loop's tie-breaking is
   deterministic, and span emission follows it).
3. **The Chrome export is structurally valid** — every ``B`` has a
   matching ``E`` on its track, timestamps are monotone per track, and
   the validator actually rejects broken documents.
4. **Counters reconcile** — cache hits + misses == candidates, and
   estimator calls == misses, exactly, for a known planner run.
"""

import json
import threading

import pytest

from repro.api import Job, Machine, Session
from repro.autotune import EvaluationCache
from repro.cluster.events import EventLoop, SerialResource
from repro.obs import (
    NULL_REGISTRY,
    NULL_TRACER,
    OBS,
    MetricsRegistry,
    Span,
    Tracer,
    chrome_trace_events,
    disable,
    enable,
    observed,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.parallel import simulate_pipeline
from repro.parallel.scenarios import overlap_exposed_collective


@pytest.fixture(autouse=True)
def _pristine_obs():
    """Every test starts and ends with the no-op defaults installed."""
    disable()
    yield
    disable()


# ---------------------------------------------------------------------------
# 1. disabled observability is invisible
# ---------------------------------------------------------------------------

class TestNoOpParity:
    def test_defaults_are_null(self):
        assert OBS.tracer is NULL_TRACER
        assert OBS.metrics is NULL_REGISTRY
        assert not OBS.enabled

    # each side prices on a fresh cache: a stored cell would compare
    # the baseline with itself

    def test_breakdown_identical_enabled_vs_disabled(self):
        job = Job(model="gpt3-2.7b", n_gpus=128, sparsity=0.9)
        baseline = Session(Machine(), cache=EvaluationCache()).breakdown(job)
        with observed(tracer=Tracer(), metrics=MetricsRegistry()):
            traced = Session(Machine(), cache=EvaluationCache()).breakdown(job)
        assert traced.to_dict() == baseline.to_dict()

    def test_overlap_run_identical_enabled_vs_disabled(self):
        job = Job(model="gpt3-2.7b", n_gpus=128, overlap=True)
        baseline = Session(Machine(), cache=EvaluationCache()).breakdown(
            job, scenario="degraded-ring"
        )
        with observed(tracer=Tracer(), metrics=MetricsRegistry()):
            traced = Session(Machine(), cache=EvaluationCache()).breakdown(
                job, scenario="degraded-ring"
            )
        assert traced.total == baseline.total
        assert traced.collective == baseline.collective
        assert traced.collective_hidden == baseline.collective_hidden

    def test_pipeline_trace_identical_enabled_vs_disabled(self):
        kwargs = dict(
            g_inter=4, n_microbatches=6, t_f_stage=1.0, t_b_stage=2.0,
            msg_time=0.25, link_contention=True,
        )
        base = simulate_pipeline(**kwargs)
        with observed(tracer=Tracer()):
            traced = simulate_pipeline(**kwargs)
        assert traced.makespan == base.makespan
        assert traced.tasks == base.tasks
        assert traced.link_windows == base.link_windows

    def test_null_tracer_span_context_is_reusable(self):
        with NULL_TRACER.span("anything") as s:
            assert s is None
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.group("pipeline") == "pipeline"

    def test_null_registry_hands_out_shared_noop(self):
        c = NULL_REGISTRY.counter("x")
        h = NULL_REGISTRY.histogram("y", {"k": "v"})
        c.inc(5)
        h.observe(1.0)
        assert c is h  # one shared instrument
        assert NULL_REGISTRY.snapshot() == {}
        assert NULL_REGISTRY.render_prometheus() == ""


# ---------------------------------------------------------------------------
# 2. span determinism and structure
# ---------------------------------------------------------------------------

def _traced_pipeline_spans():
    tracer = Tracer()
    with observed(tracer=tracer):
        simulate_pipeline(
            g_inter=3, n_microbatches=4, t_f_stage=1.0, t_b_stage=2.0,
            msg_time=[0.5, 0.25],
        )
    return tracer.spans


class TestSpanDeterminism:
    def test_identical_runs_produce_equal_span_sequences(self):
        assert _traced_pipeline_spans() == _traced_pipeline_spans()

    def test_tie_broken_events_keep_insertion_order(self):
        # Two zero-delay events at the same timestamp: seq attrs must
        # reflect insertion order in the recorded spans.
        order = []
        tracer = Tracer()
        with observed(tracer=tracer):
            loop = EventLoop()
            loop.schedule(0.0, lambda: order.append("a"))
            loop.schedule(0.0, lambda: order.append("b"))
            loop.run()
        assert order == ["a", "b"]
        seqs = [dict(s.attrs)["seq"] for s in tracer.spans]
        assert seqs == sorted(seqs)

    def test_stage_link_and_ring_tracks_are_distinct(self):
        tracer = Tracer()
        with observed(tracer=tracer):
            trace = simulate_pipeline(
                g_inter=3, n_microbatches=4, t_f_stage=1.0, t_b_stage=2.0,
                msg_time=0.3,
            )
            overlap_exposed_collective(trace, comm_time=2.0, n_buckets=4)
        tracks = tracer.tracks()
        assert any(t.startswith("pipeline#0/stage") for t in tracks)
        assert any(t.startswith("pipeline#0/link") for t in tracks)
        assert any(t.startswith("allreduce#0/ring") for t in tracks)

    def test_group_numbers_repeated_runs(self):
        tracer = Tracer()
        assert tracer.group("pipeline") == "pipeline#0"
        assert tracer.group("pipeline") == "pipeline#1"
        assert tracer.group("allreduce") == "allreduce#0"

    def test_hidden_plus_exposed_covers_every_bucket(self):
        tracer = Tracer()
        registry = MetricsRegistry()
        n_buckets = 6
        with observed(tracer=tracer, metrics=registry):
            trace = simulate_pipeline(
                g_inter=3, n_microbatches=4, t_f_stage=1.0, t_b_stage=2.0
            )
            overlap_exposed_collective(trace, comm_time=3.0, n_buckets=n_buckets)
        cats = tracer.by_category()
        hidden = cats.get("allreduce.hidden", 0)
        exposed = cats.get("allreduce.exposed", 0)
        assert hidden + exposed == trace.g_inter * n_buckets
        snap = registry.snapshot()
        assert snap["overlap.buckets.hidden"] == hidden
        assert snap["overlap.buckets.exposed"] == exposed

    def test_span_validation(self):
        with pytest.raises(ValueError, match="unknown clock"):
            Span("x", "", "t", 0.0, 1.0, clock="lunar")
        with pytest.raises(ValueError, match="ends before it starts"):
            Span("x", "", "t", 2.0, 1.0)
        s = Span("x", "c", "t", 1.0, 3.5)
        assert s.duration == 2.5

    def test_wall_clock_span_context(self):
        tracer = Tracer()
        with tracer.span("op", category="session", answer=42):
            pass
        (s,) = tracer.spans
        assert s.clock == "wall"
        assert s.end >= s.start
        assert dict(s.attrs) == {"answer": 42}


# ---------------------------------------------------------------------------
# 3. Chrome export validity
# ---------------------------------------------------------------------------

class TestChromeExport:
    def test_export_of_real_run_is_valid(self, tmp_path):
        spans = _traced_pipeline_spans()
        out = tmp_path / "trace.json"
        summary = write_chrome_trace(out, spans)
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        assert summary["events"] > 0
        # stages and links render as separately named tracks
        assert any("stage" in t for t in summary["tracks"])
        assert any("link" in t for t in summary["tracks"])

    def test_every_b_has_an_e_and_monotone_ts(self):
        events = chrome_trace_events(_traced_pipeline_spans())
        per_track_depth: dict = {}
        per_track_last: dict = {}
        for ev in events:
            if ev["ph"] == "M":
                continue
            key = (ev["pid"], ev["tid"])
            assert ev["ts"] >= per_track_last.get(key, 0.0)
            per_track_last[key] = ev["ts"]
            depth = per_track_depth.get(key, 0) + (1 if ev["ph"] == "B" else -1)
            assert depth >= 0
            per_track_depth[key] = depth
        assert all(d == 0 for d in per_track_depth.values())

    def test_wall_and_virtual_spans_land_in_separate_processes(self):
        spans = [
            Span("v", "", "t", 0.0, 1.0, clock="virtual"),
            Span("w", "", "t", 0.0, 1.0, clock="wall"),
        ]
        pids = {e["pid"] for e in chrome_trace_events(spans) if e["ph"] != "M"}
        assert pids == {1, 2}

    def test_partial_overlap_spills_to_extra_lane(self):
        spans = [
            Span("a", "", "t", 0.0, 2.0),
            Span("b", "", "t", 1.0, 3.0),  # partial overlap: illegal as B/E nesting
        ]
        events = chrome_trace_events(spans)
        assert validate_chrome_trace(events) == []
        lanes = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert lanes == {"t", "t (2)"}

    def test_validator_rejects_broken_documents(self):
        unclosed = [{"ph": "B", "name": "x", "pid": 1, "tid": 1, "ts": 0}]
        assert any("never closed" in e for e in validate_chrome_trace(unclosed))
        orphan = [{"ph": "E", "name": "x", "pid": 1, "tid": 1, "ts": 0}]
        assert any("no open B" in e for e in validate_chrome_trace(orphan))
        regressed = [
            {"ph": "B", "name": "x", "pid": 1, "tid": 1, "ts": 5},
            {"ph": "E", "name": "x", "pid": 1, "tid": 1, "ts": 2},
        ]
        assert any("regressed" in e for e in validate_chrome_trace(regressed))
        assert validate_chrome_trace({"traceEvents": "nope"}) != []
        assert any("no B/E" in e for e in validate_chrome_trace([]))

    def test_session_trace_to_writes_valid_chrome_file(self, tmp_path):
        out = tmp_path / "session.json"
        session = Session(
            Machine(), cache=EvaluationCache(), trace_to=str(out)
        )
        session.breakdown(
            Job(model="gpt3-2.7b", n_gpus=128, overlap=True),
            scenario="degraded-ring",
        )
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        # the acceptance artifact: stages, links, and allreduce buckets
        # render as distinct tracks
        assert any("stage" in n for n in names)
        assert any("link" in n for n in names)
        assert any("ring" in n for n in names)


# ---------------------------------------------------------------------------
# 4. metrics correctness
# ---------------------------------------------------------------------------

class TestMetricsReconciliation:
    def test_cache_counters_reconcile_with_evaluations(self):
        session = Session(Machine(), cache=EvaluationCache())
        job = Job(model="gpt3-xl", n_gpus=64)
        res = session.plan(job)
        snap = session.metrics()
        n = res.stats.candidates
        assert snap["planner.candidates"] == n
        assert snap["planner.cache.hits"] + snap["planner.cache.misses"] == n
        assert snap["planner.cache.misses"] == res.stats.evaluated
        # analytic prices through the batch program: one call (and one
        # latency sample) per cold plan, sized by its misses
        assert snap['estimator.batch_rows{fidelity="analytic"}'] == res.stats.evaluated
        assert snap['estimator.calls{fidelity="analytic"}'] == 1
        lat = snap['estimator.evaluate_seconds{fidelity="analytic"}']
        assert lat["count"] == 1

        # replanning the identical job: all hits, zero new estimator calls
        session.plan(job)
        snap = session.metrics()
        assert snap["planner.candidates"] == 2 * n
        assert snap["planner.cache.hits"] + snap["planner.cache.misses"] == 2 * n
        assert snap['estimator.batch_rows{fidelity="analytic"}'] == snap["planner.cache.misses"]
        assert snap['estimator.calls{fidelity="analytic"}'] == 1
        assert snap['estimator.evaluate_seconds{fidelity="analytic"}']["count"] == 1

    def test_plan_result_stats_block_in_json(self):
        session = Session(Machine(), cache=EvaluationCache())
        doc = session.plan(Job(model="gpt3-xl", n_gpus=64)).to_dict()
        assert doc["stats"]["candidates"] == doc["stats"]["evaluated"] + doc["stats"]["cache_hits"]
        assert doc["stats"]["wall_seconds"] >= 0

    def test_robust_plan_stats_block(self):
        session = Session(Machine(), cache=EvaluationCache())
        res = session.robust_plan(Job(model="gpt3-xl", n_gpus=64), "neutral")
        assert res.stats["scenarios"] == 1
        assert res.stats["candidates"] == res.stats["evaluated"] + res.stats["cache_hits"]
        assert res.to_dict()["stats"] == res.stats

    def test_session_op_accounting(self):
        session = Session(Machine(), cache=EvaluationCache())
        session.breakdown(Job(model="gpt3-2.7b", n_gpus=128))
        session.breakdown(Job(model="gpt3-2.7b", n_gpus=128))
        snap = session.metrics()
        assert snap['session.ops{op="breakdown"}'] == 2
        assert snap['session.op_seconds{op="breakdown"}']["count"] == 2
        assert "events.processed" not in snap  # analytic path runs no engine

    def test_overlapping_ops_keep_the_registry_until_the_last_exits(self):
        # op A enters, op B enters, A returns, then B counts: B's
        # increment must land on the session registry, not on whatever
        # was installed before A
        session = Session(Machine(), cache=EvaluationCache())
        a_entered, b_entered, a_done = (threading.Event() for _ in range(3))

        def op_a():
            with session._op("a"):
                a_entered.set()
                b_entered.wait(5)
            a_done.set()

        def op_b():
            a_entered.wait(5)
            with session._op("b"):
                b_entered.set()
                a_done.wait(5)
                OBS.metrics.counter("late.increments").inc()

        threads = [threading.Thread(target=op_a), threading.Thread(target=op_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert a_done.is_set()
        snap = session.metrics()
        assert snap["late.increments"] == 1
        assert snap['session.ops{op="a"}'] == snap['session.ops{op="b"}'] == 1
        assert OBS.metrics is NULL_REGISTRY  # the last exit restored the default

    def test_registry_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.histogram("x")

    def test_histogram_percentiles_exact(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0
        assert h.percentile(50) == 51.0  # nearest-rank on 100 samples
        snap = h.snapshot()
        assert snap["count"] == 100 and snap["min"] == 1.0 and snap["max"] == 100.0
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_prometheus_rendering(self):
        reg = MetricsRegistry()
        reg.counter("hits", {"cache": "eval"}).inc(3)
        reg.histogram("lat").observe(0.5)
        text = reg.render_prometheus()
        assert 'hits{cache="eval"} 3' in text
        assert "lat_count 1" in text
        assert 'lat{quantile="50"} 0.5' in text

    def test_prometheus_label_values_escaped(self):
        # Prometheus text format: label values must escape backslash,
        # double-quote, and newline. Pin the exact exposition bytes.
        from repro.obs.metrics import escape_label_value

        assert escape_label_value('say "hi"') == 'say \\"hi\\"'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("line1\nline2") == "line1\\nline2"

        reg = MetricsRegistry()
        reg.counter("req", {"path": 'a"b\\c\nd'}).inc()
        text = reg.render_prometheus()
        assert 'req{path="a\\"b\\\\c\\nd"} 1' in text
        assert "\nd" not in text  # no raw newline leaks into the exposition
        # escaped and raw-identical values land on the same series
        reg.counter("req", {"path": 'a"b\\c\nd'}).inc()
        assert 'req{path="a\\"b\\\\c\\nd"} 2' in reg.render_prometheus()

    def test_enable_disable_process_wide(self):
        tracer, metrics = enable()
        try:
            assert OBS.enabled and OBS.tracer is tracer and OBS.metrics is metrics
            simulate_pipeline(
                g_inter=2, n_microbatches=2, t_f_stage=1.0, t_b_stage=1.0
            )
            assert len(tracer) > 0
            assert metrics.snapshot()["events.processed"] > 0
        finally:
            disable()
        assert not OBS.enabled


# ---------------------------------------------------------------------------
# satellite regressions: event-loop accounting and recorded link windows
# ---------------------------------------------------------------------------

class TestEventLoopAccounting:
    def test_budget_error_reports_processed_count(self):
        loop = EventLoop()

        def reschedule():
            loop.schedule(0.0, reschedule)

        loop.schedule(0.0, reschedule)
        with pytest.raises(RuntimeError) as err:
            loop.run(max_events=10)
        assert "after processing 11 events" in str(err.value)
        # the satellite fix: the count survives the raise instead of
        # reporting the pre-run value
        assert loop.events_processed == 11

    def test_events_processed_accumulates_across_runs(self):
        loop = EventLoop()
        loop.schedule(0.0, lambda: None)
        loop.run()
        loop.schedule(0.0, lambda: None)
        loop.schedule(0.1, lambda: None)
        loop.run()
        assert loop.events_processed == 3


class TestRecordedWindows:
    def test_acquire_records_labels(self):
        r = SerialResource("link", record=True)
        assert r.acquire(0.0, 2.0, "F0") == (0.0, 2.0)
        assert r.acquire(0.5, 1.0, "B0") == (2.0, 3.0)  # queued behind F0
        assert r.windows == [(0.0, 2.0, "F0"), (2.0, 3.0, "B0")]
        r.acquire(0.0, 0.0, "zero")  # zero-duration: counted, not recorded
        assert len(r.windows) == 2

    def test_unrecorded_resource_keeps_no_windows(self):
        r = SerialResource("link")
        r.acquire(0.0, 1.0, "x")
        assert r.windows is None

    def test_pipeline_trace_surfaces_link_windows(self):
        trace = simulate_pipeline(
            g_inter=3, n_microbatches=4, t_f_stage=1.0, t_b_stage=2.0,
            msg_time=0.25,
        )
        assert len(trace.link_windows) == 2
        # every forward except stage-last and every backward except
        # stage-first crosses a link exactly once
        for windows in trace.link_windows:
            assert len(windows) == 2 * trace.n_microbatches
            for start, end, label in windows:
                assert end == pytest.approx(start + 0.25)
                assert label[0] in ("F", "B")

    def test_contended_windows_match_busy_time(self):
        trace = simulate_pipeline(
            g_inter=3, n_microbatches=4, t_f_stage=1.0, t_b_stage=2.0,
            msg_time=0.6, link_contention=True,
        )
        for busy, windows in zip(trace.link_busy, trace.link_windows):
            assert sum(e - s for s, e, _ in windows) == pytest.approx(busy)
            # FIFO: recorded windows never overlap
            for (s0, e0, _), (s1, e1, _) in zip(windows, windows[1:]):
                assert s1 >= e0

    def test_ascii_links_rows(self):
        trace = simulate_pipeline(
            g_inter=3, n_microbatches=4, t_f_stage=1.0, t_b_stage=2.0,
            msg_time=0.5,
        )
        plain = trace.ascii(0.5)
        with_links = trace.ascii(0.5, links=True)
        assert plain in with_links  # links only append rows
        assert "LNK 0:" in with_links and "LNK 1:" in with_links
        assert "###" in with_links
