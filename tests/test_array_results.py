"""Properties of the array-backed robust and Monte-Carlo results.

* :class:`repro.stochastic.ExposureMemo` is exact: rows read from it, in
  whatever order the sample counts grow or shrink, are bitwise the rows
  of a fresh ``sample_timelines(n)``, with the same event counts (and so
  the same ``mc.timeline_events`` observations); racing threads read
  equal rows; and its byte bound holds.
* A result's lazily built ``entries`` equal the entries the planners
  used to build eagerly, one object per candidate from the priced
  cells, field for field.
"""

from __future__ import annotations

import math
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Job, Machine, RobustEvaluation, ScenarioSet, Session
from repro.autotune.cache import EvaluationCache
from repro.parallel.scenarios import SCENARIOS
from repro.stochastic import (
    PROCESSES,
    DegradationKind,
    ExposureMemo,
    MCCandidate,
    RateFunction,
    ScenarioProcess,
)
from repro.stochastic.monte_carlo import Z95, _columns_for, _exposure_matrix

NARROW = {"frameworks": ("axonn", "axonn+samo"), "microbatch_sizes": (1, 2),
          "explore_no_checkpoint": False}
COLLECTIVE = ("degraded-ring", "slow-ring-link", "ring-straggler", "hierarchical-degraded")


@st.composite
def processes(draw):
    """A named process, or one of up to three collective-only kinds with a
    constant or linear rate, a duration or none, over a random horizon."""
    if draw(st.booleans()):
        return PROCESSES[draw(st.sampled_from(sorted(PROCESSES)))]
    kinds = []
    for i in range(draw(st.integers(1, 3))):
        r0 = draw(st.floats(0.0, 4.0))
        rate = (RateFunction.linear(r0, draw(st.floats(0.0, 4.0))) if draw(st.booleans())
                else RateFunction.constant(r0))
        kinds.append(DegradationKind(
            f"kind-{i}", SCENARIOS[draw(st.sampled_from(COLLECTIVE))], rate,
            draw(st.none() | st.floats(0.05, 1.0)),
        ))
    return ScenarioProcess("drawn", tuple(kinds), horizon=draw(st.floats(0.5, 3.0)))


def fresh(process: ScenarioProcess, n: int, seed: int) -> tuple:
    timelines = process.sample_timelines(n, seed)
    rows = _exposure_matrix(timelines, _columns_for(process)[0], process.horizon)
    return rows, tuple(len(t.events) for t in timelines)


def assert_bitwise(got: tuple, expected: tuple) -> None:
    rows, events = got
    assert rows.shape == expected[0].shape and rows.tobytes() == expected[0].tobytes()
    assert tuple(events) == expected[1]


# ---------------------------------------------------------------------------
# the exposure memo
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(processes(), st.integers(0, 10_000), st.integers(1, 40), st.integers(1, 40))
def test_memo_prefixes_grown_in_any_order_equal_fresh_draws(process, seed, n1, n2):
    memo = ExposureMemo()
    labels = _columns_for(process)[0]
    for n in (n1, n2, n1):
        assert_bitwise(memo.rows(process, labels, n, seed), fresh(process, n, seed))
    assert len(memo._entries) == 1


def test_memo_reads_prefixes_and_redraws_only_larger_requests(monkeypatch):
    process, calls = PROCESSES["flaky-links"], []
    original = ScenarioProcess.sample_timelines

    def counting(self, n, seed=0):
        calls.append(n)
        return original(self, n, seed)

    monkeypatch.setattr(ScenarioProcess, "sample_timelines", counting)
    memo, labels = ExposureMemo(), _columns_for(process)[0]
    for n in (8, 4, 8, 16, 2, 16):
        memo.rows(process, labels, n, 3)
    assert calls == [8, 16]


def test_timeline_event_observations_match_a_fresh_session():
    job = Job(model="gpt3-xl", n_gpus=16)
    warm = Session(Machine.summit(), cache=EvaluationCache())
    for samples in (16, 4, 32):
        cold = Session(Machine.summit(), cache=EvaluationCache())
        before = list(warm.registry.histogram("mc.timeline_events").values)
        a = warm.mc_robust_plan(job, "flaky-links", samples=samples, seed=5, **NARROW)
        b = cold.mc_robust_plan(job, "flaky-links", samples=samples, seed=5, **NARROW)
        observed = warm.registry.histogram("mc.timeline_events").values[len(before):]
        assert observed == cold.registry.histogram("mc.timeline_events").values
        assert {**a.to_dict(), "stats": None} == {**b.to_dict(), "stats": None}
    assert warm.metrics()["mc.samples"] == 16 + 4 + 32


def test_threads_racing_on_one_key_read_equal_rows():
    process = PROCESSES["aging-stragglers"]
    labels = _columns_for(process)[0]
    memo, sizes = ExposureMemo(), (5, 20, 12, 20, 1, 33, 20, 7)
    barrier, out = threading.Barrier(len(sizes)), [None] * len(sizes)

    def ask(i):
        barrier.wait()
        out[i] = memo.rows(process, labels, sizes[i], 9)

    threads = [threading.Thread(target=ask, args=(i,)) for i in range(len(sizes))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    for n, got in zip(sizes, out):
        assert_bitwise(got, fresh(process, n, 9))
    assert len(memo._entries) == 1 and len(memo.rows(process, labels, 33, 9)[1]) == 33


def test_the_byte_bound_holds_and_oversized_draws_are_served_not_kept():
    process = PROCESSES["flaky-links"]
    labels = _columns_for(process)[0]
    memo = ExposureMemo()
    memo.MAX_BYTES = 4_000  # a small bound, so a few draws overflow it
    for seed in range(20):
        memo.rows(process, labels, 16, seed)
        assert memo._bytes <= memo.MAX_BYTES
    assert 1 < len(memo._entries) < 20
    kept = len(memo._entries)
    assert_bitwise(memo.rows(process, labels, 200, 99), fresh(process, 200, 99))
    assert len(memo._entries) == kept and memo._bytes <= memo.MAX_BYTES
    assert ExposureMemo.MAX_BYTES == 2 << 20


# ---------------------------------------------------------------------------
# lazy entries
# ---------------------------------------------------------------------------

SESSIONS = {gb: Session(Machine.summit(budget_gb=gb), cache=EvaluationCache()) for gb in (8, 16, 32)}


def eager_robust_entries(res) -> list:
    """The per-candidate loop robust_plan used to run over its cells."""
    labels = list(res.scenario_set.labels())
    rows = list(zip(*(p.evaluations for p in res.per_scenario.values())))
    times = np.array([[ev.total_time for ev in row] for row in rows])
    expected = times[:, 0] if len(labels) == 1 else times @ np.asarray(res.scenario_set.weights)
    worst = np.argmax(times, axis=1)
    return [
        RobustEvaluation(
            config=row[0].config,
            expected_time=float(expected[r]),
            worst_time=float(times[r, worst[r]]),
            worst_scenario=labels[int(worst[r])],
            per_scenario={label: float(times[r, j]) for j, label in enumerate(labels)},
            memory_bytes=row[0].memory_bytes,
            feasible=all(ev.feasible for ev in row),
            batch_size=row[0].batch_size,
        )
        for r, row in enumerate(rows)
    ]


def eager_mc_entries(session, job, process, samples: int, seed: int) -> list:
    """The per-candidate loop mc_robust_plan used to run (CRN), over a
    fresh draw and the cells as a robust plan over the same columns reads
    them."""
    labels, columns = _columns_for(process)
    sset = ScenarioSet("columns", tuple((c, 1.0) for c in columns))
    res = session.robust_plan(job.with_(fidelity="analytic-batch"), sset, **NARROW)
    rows = list(zip(*(p.evaluations for p in res.per_scenario.values())))
    times = np.array([[ev.total_time for ev in row] for row in rows])
    timelines = process.sample_timelines(samples, seed)
    costs = times @ _exposure_matrix(timelines, labels, process.horizon).T
    mean = costs.mean(axis=1)
    std = costs.std(axis=1, ddof=1) if samples > 1 else np.zeros(len(rows))
    ci95 = Z95 * std / math.sqrt(samples)
    worst = np.argmax(costs, axis=1)
    return [
        MCCandidate(
            config=row[0].config,
            mean_time=float(mean[r]),
            std_time=float(std[r]),
            ci95=float(ci95[r]),
            worst_time=float(costs[r, worst[r]]),
            worst_sample=int(worst[r]),
            per_scenario={label: float(times[r, j]) for j, label in enumerate(labels)},
            sample_costs=tuple(costs[r].tolist()),
            memory_bytes=row[0].memory_bytes,
            feasible=all(ev.feasible for ev in row),
            batch_size=row[0].batch_size,
        )
        for r, row in enumerate(rows)
    ]


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(sorted(SESSIONS)),
    st.sampled_from(("gpt3-xl", "gpt3-2.7b")),
    st.sampled_from((16, 32, 64)),
    st.sampled_from(("collective-degraded", "neutral", "hierarchical-mixed")),
)
def test_lazy_robust_entries_equal_eager_ones(gb, model, n_gpus, scenarios):
    res = SESSIONS[gb].robust_plan(
        Job(model=model, n_gpus=n_gpus, fidelity="analytic-batch"), scenarios, **NARROW
    )
    eager = eager_robust_entries(res)
    assert res.entries == eager
    assert res.feasible == sorted((e for e in eager if e.feasible), key=lambda e: e.expected_time)
    assert [e.to_dict() for e in res.entries] == [e.to_dict() for e in eager]


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(sorted(SESSIONS)),
    st.sampled_from((16, 32, 64)),
    processes().filter(lambda p: not p.is_degenerate and not p.degrades_pipeline()),
    st.integers(0, 10_000),
    st.integers(1, 24),
)
def test_lazy_mc_entries_equal_eager_ones(gb, n_gpus, process, seed, samples):
    session, job = SESSIONS[gb], Job(model="gpt3-xl", n_gpus=n_gpus)
    res = session.mc_robust_plan(job, process, samples=samples, seed=seed, **NARROW)
    eager = eager_mc_entries(session, job, process, samples, seed)
    assert res.entries == eager
    assert res.feasible == sorted((e for e in eager if e.feasible), key=lambda e: e.mean_time)


def test_an_empty_candidate_space_ranks_nothing():
    """Nothing fits 1 GB: the rankings are empty and the wire writes
    ``best: null``, as a plan does (the matrices have no rows)."""
    import json

    from repro.serve import PlanningServer

    server = PlanningServer(machine=Machine.summit(budget_gb=1))
    job = {"model": "gpt3-13b", "n_gpus": 8, "fidelity": "analytic-batch"}
    for method, params in (
        ("robust_plan", {"job": job, "scenarios": "collective-degraded"}),
        ("mc_robust_plan", {"job": job, "process": "flaky-links", "samples": 4}),
    ):
        result = getattr(server, f"do_{method}")(params)
        assert result.entries == [] and result.ranking == []
        doc = json.loads(server.handle({"jsonrpc": "2.0", "id": 1, "method": method, "params": params}))
        assert doc["result"]["best"] is None and doc["result"]["entries"] == []
