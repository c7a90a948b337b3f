"""repro.stochastic: failure processes, MC robust planning, re-planning.

Pins the subsystem's statistical invariants with fixed seeds:

* sampler determinism — one seed, one event stream; SeedSequence prefix
  property across sample counts;
* rate monotonicity — doubling a constant rate halves the same seeded
  exponential gaps, so the event count never drops and grows overall;
* exposure algebra — weights sum to 1, overlap resolves to the latest
  arrival, absorbing events run to the horizon;
* CRN — every candidate priced on the *same* per-sample scenario
  exposures, and the paired-difference variance is measurably below
  independent sampling (the acceptance criterion);
* degeneracy — a process that can never fire reproduces
  ``Session.plan`` bit-identically, fidelity and all;
* RNG hygiene + ScenarioSet round-trip hardening (the satellites).
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.api import Job, Machine, ScenarioSet, Session
from repro.autotune.cache import EvaluationCache
from repro.parallel.scenarios import SCENARIOS
from repro.rng import resolve_rng, spawn_generators
from repro.stochastic import (
    PROCESSES,
    DegradationKind,
    RateFunction,
    ScenarioProcess,
    ScenarioTimeline,
    get_process,
)


def _constant_process(rate, duration=0.1, scenario="slow-ring-link"):
    return ScenarioProcess(
        "one-kind",
        (
            DegradationKind(
                "k", scenario=SCENARIOS[scenario],
                rate=RateFunction.constant(rate), duration=duration,
            ),
        ),
    )


# ---------------------------------------------------------------------------
# processes and sampling
# ---------------------------------------------------------------------------

class TestScenarioProcess:
    def test_named_presets_resolve_and_round_trip(self):
        for name, process in PROCESSES.items():
            assert get_process(name) is process
            clone = ScenarioProcess.from_dict(
                json.loads(json.dumps(process.to_dict()))
            )
            assert clone == process

    def test_unknown_process_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario process"):
            get_process("nope")
        with pytest.raises(TypeError):
            get_process(42)

    def test_validation(self):
        with pytest.raises(ValueError, match="rate kind"):
            RateFunction("quadratic", 1.0)
        with pytest.raises(ValueError, match="finite non-negative"):
            RateFunction.constant(-1.0)
        with pytest.raises(ValueError, match="finite non-negative"):
            RateFunction.constant(math.inf)
        with pytest.raises(ValueError, match="rate_end"):
            RateFunction("linear", 1.0)
        with pytest.raises(ValueError, match="duration"):
            DegradationKind("k", None, RateFunction.constant(1.0), duration=0.0)
        with pytest.raises(ValueError, match="horizon"):
            ScenarioProcess("p", (), horizon=0.0)
        kind = DegradationKind("k", None, RateFunction.constant(1.0))
        with pytest.raises(ValueError, match="duplicate kind"):
            ScenarioProcess("p", (kind, kind))

    def test_neutral_kind_scenario_canonicalises_to_none(self):
        kind = DegradationKind(
            "idle", scenario=SCENARIOS["uniform"], rate=RateFunction.constant(5.0)
        )
        assert kind.scenario is None

    def test_fixed_seed_identical_event_streams(self):
        process = get_process("flaky-links")
        a = process.sample(resolve_rng(11))
        b = process.sample(resolve_rng(11))
        assert a == b
        assert a.events  # rate 2 + 1 over the horizon: all-empty is wrong

    def test_prefix_property_across_sample_counts(self):
        process = get_process("flaky-links")
        few = process.sample_timelines(3, seed=5)
        many = process.sample_timelines(9, seed=5)
        assert many[:3] == few

    def test_doubling_rate_yields_more_events(self):
        # same seed => the doubled rate halves the same exponential
        # gaps, so per-sample counts never drop; over draws they grow
        slow, fast = _constant_process(1.0), _constant_process(2.0)
        total_slow = total_fast = 0
        for seed in range(20):
            n_slow = len(slow.sample(resolve_rng(seed)).events)
            n_fast = len(fast.sample(resolve_rng(seed)).events)
            assert n_fast >= n_slow
            total_slow += n_slow
            total_fast += n_fast
        assert total_fast > total_slow

    def test_linear_rate_thinning_front_vs_back_loaded(self):
        climbing = ScenarioProcess(
            "aging", (DegradationKind(
                "k", SCENARIOS["straggler"], RateFunction.linear(0.0, 4.0),
            ),),
        )
        times = [
            ev.time
            for timeline in climbing.sample_timelines(200, seed=0)
            for ev in timeline.events
        ]
        # a 0 -> λ ramp concentrates arrivals late: E[t] = 2/3 horizon
        assert np.mean(times) > 0.55

    def test_zero_rate_never_fires_and_is_degenerate(self):
        calm = _constant_process(0.0)
        assert calm.is_degenerate
        assert calm.sample(resolve_rng(0)).events == ()
        assert get_process("calm").is_degenerate

    def test_timeline_round_trip(self):
        timeline = get_process("spot-preemption").sample_timelines(4, seed=2)[3]
        clone = ScenarioTimeline.from_dict(
            json.loads(json.dumps(timeline.to_dict()))
        )
        assert clone == timeline
        assert clone.exposure() == timeline.exposure()


class TestExposure:
    def test_weights_sum_to_one_and_neutral_leads(self):
        for seed in range(10):
            exposure = get_process("flaky-links").sample(
                resolve_rng(seed)
            ).exposure()
            assert sum(w for _, w in exposure) == pytest.approx(1.0)
            names = [s.name if s is not None else None for s, _ in exposure]
            if None in names:
                assert names[0] is None

    def test_absorbing_event_runs_to_horizon(self):
        from repro.stochastic import ScenarioEvent

        timeline = ScenarioTimeline(
            horizon=1.0,
            events=(
                ScenarioEvent(0.25, "loss", SCENARIOS["degraded"], None),
            ),
        )
        exposure = dict(
            (s.name if s is not None else None, w) for s, w in timeline.exposure()
        )
        assert exposure[None] == pytest.approx(0.25)
        assert exposure["degraded"] == pytest.approx(0.75)

    def test_overlap_resolves_to_latest_arrival(self):
        from repro.stochastic import ScenarioEvent

        timeline = ScenarioTimeline(
            horizon=1.0,
            events=(
                ScenarioEvent(0.2, "a", SCENARIOS["degraded-ring"], 0.6),
                ScenarioEvent(0.4, "b", SCENARIOS["slow-ring-link"], 0.2),
            ),
        )
        # 0.0-0.2 neutral, 0.2-0.4 ring, 0.4-0.6 flap (later arrival
        # wins), 0.6-0.8 ring again, 0.8-1.0 neutral
        exposure = dict(
            (s.name if s is not None else None, w) for s, w in timeline.exposure()
        )
        assert exposure[None] == pytest.approx(0.4)
        assert exposure["degraded-ring"] == pytest.approx(0.4)
        assert exposure["slow-ring-link"] == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# Monte-Carlo robust planning
# ---------------------------------------------------------------------------

JOB = Job(model="gpt3-xl", n_gpus=16)


class TestMCRobustPlan:
    def test_degenerate_process_reproduces_plan_bit_identically(self):
        session = Session(Machine.summit(), cache=EvaluationCache())
        plan = session.plan(JOB)
        mc = session.mc_robust_plan(JOB, "calm", samples=6, seed=9)
        assert mc.fidelity == plan.fidelity == "analytic"
        assert [(e.config, e.mean_time) for e in mc.entries] == [
            (e.config, e.total_time) for e in plan.evaluations
        ]
        assert [e.config for e in mc.feasible] == [
            e.config for e in plan.feasible
        ]
        best = mc.best
        assert best.std_time == best.ci95 == 0.0
        assert best.worst_time == best.mean_time
        assert set(best.sample_costs) == {best.mean_time}

    def test_collective_only_process_uses_batch_fidelity(self):
        session = Session(Machine.summit(), cache=EvaluationCache())
        mc = session.mc_robust_plan(JOB, "flaky-links", samples=8, seed=1)
        assert mc.fidelity == "analytic-batch"
        assert mc.labels == ("neutral", "slow-ring-link", "degraded-ring")
        assert mc.stats["evaluated"] > 0

    def test_pipeline_process_needs_engine(self):
        session = Session(Machine.summit(), cache=EvaluationCache())
        mc = session.mc_robust_plan(
            JOB, "aging-stragglers", samples=2, seed=0,
            frameworks=("axonn+samo",), microbatch_sizes=(4,),
        )
        assert mc.fidelity == "sim"

    def test_crn_candidates_share_per_sample_exposures_exactly(self):
        session = Session(Machine.summit(), cache=EvaluationCache())
        mc = session.mc_robust_plan(JOB, "flaky-links", samples=8, seed=4)
        from repro.stochastic.monte_carlo import _exposure_matrix

        W = _exposure_matrix(
            get_process("flaky-links").sample_timelines(8, seed=4),
            list(mc.labels), 1.0,
        )
        # every candidate's sample costs are its scenario row times the
        # SAME exposure matrix — the common-random-numbers contract
        # (atol covers BLAS matmul vs vector-dot summation order only)
        for entry in mc.entries[:20]:
            row = np.array([entry.per_scenario[l] for l in mc.labels])
            np.testing.assert_allclose(
                np.asarray(entry.sample_costs), row @ W.T, rtol=0, atol=1e-9
            )

    def test_crn_difference_variance_below_independent(self):
        session = Session(Machine.summit(), cache=EvaluationCache())
        crn = session.mc_robust_plan(JOB, "flaky-links", samples=16, seed=3)
        ind = session.mc_robust_plan(
            JOB, "flaky-links", samples=16, seed=3, crn=False
        )
        a, b = crn.feasible[0], crn.feasible[1]
        by_config = {e.config: e for e in ind.entries}
        ai, bi = by_config[a.config], by_config[b.config]
        var_crn = np.var(
            np.asarray(b.sample_costs) - np.asarray(a.sample_costs), ddof=1
        )
        var_ind = np.var(
            np.asarray(bi.sample_costs) - np.asarray(ai.sample_costs), ddof=1
        )
        assert var_crn < var_ind

    def test_same_seed_serializes_byte_identically(self):
        def run():
            session = Session(Machine.summit(), cache=EvaluationCache())
            return json.dumps(
                session.mc_robust_plan(
                    JOB, "flaky-links", samples=8, seed=7
                ).to_dict()
            )

        assert run() == run()

    def test_leaders_flags_statistical_ties(self):
        session = Session(Machine.summit(), cache=EvaluationCache())
        mc = session.mc_robust_plan(JOB, "flaky-links", samples=8, seed=2)
        leaders = mc.leaders()
        assert leaders and leaders[0] is mc.best
        # an exact duplicate of the winner is indistinguishable from it
        # by construction: paired differences are all zero
        clone = mc.best
        mc.entries.append(clone)
        assert sum(1 for e in mc.leaders() if e is clone) >= 1

    @staticmethod
    def _loop_leaders(mc) -> list:
        """The per-candidate loop ``leaders()`` used to run: the reference."""
        ranked = mc.feasible
        if not ranked:
            return []
        base = np.asarray(ranked[0].sample_costs)
        out = [ranked[0]]
        for entry in ranked[1:]:
            d = np.asarray(entry.sample_costs) - base
            mean_d = float(d.mean())
            if len(d) > 1:
                half = 1.96 * float(d.std(ddof=1)) / math.sqrt(len(d))
            else:
                half = 0.0
            if mean_d <= half:
                out.append(entry)
        return out

    @staticmethod
    def _with_copies_of_best(mc, costs: list):
        """``mc`` with one more candidate row per entry of ``costs``: a
        copy of the winner's row (so it ranks right after it) carrying
        those per-sample costs."""
        import dataclasses

        best, k = mc.ranking[0], len(costs)

        def grow(values, extra):
            return np.concatenate([values, extra])

        return dataclasses.replace(
            mc,
            configs=mc.configs + (mc.configs[best],) * k,
            memory=mc.memory + (mc.memory[best],) * k,
            batch=mc.batch + (mc.batch[best],) * k,
            times=grow(mc.times, np.repeat(mc.times[best:best + 1], k, axis=0)),
            costs=grow(mc.costs, np.array(costs)),
            mean=grow(mc.mean, np.repeat(mc.mean[best], k)),
            std=grow(mc.std, np.repeat(mc.std[best], k)),
            ci95=grow(mc.ci95, np.repeat(mc.ci95[best], k)),
            worst=grow(mc.worst, np.repeat(mc.worst[best], k)),
            fits=grow(mc.fits, np.ones(k, dtype=bool)),
        )

    def test_leaders_match_the_per_candidate_loop(self):
        """One difference matrix reduced row-wise gives the loop's leaders,
        and each row's mean and std are bitwise the loop's 1-D ones.

        Real plans rarely tie, so each case also carries noisy copies of
        its winner, some within the 95% interval and some beyond it, and
        one exact copy."""
        session = Session(Machine.summit(), cache=EvaluationCache())
        processes = ("flaky-links", _constant_process(3.0), _constant_process(0.5, 0.4))
        rng = np.random.default_rng(0)
        tied = untied = 0
        for model, n_gpus in (("gpt3-xl", 16), ("gpt3-xl", 64), ("gpt3-2.7b", 32)):
            for process in processes:
                for samples, seed in ((1, 0), (2, 5), (8, 2), (33, 7)):
                    mc = session.mc_robust_plan(
                        Job(model=model, n_gpus=n_gpus), process,
                        samples=samples, seed=seed,
                    )
                    best = mc.ranking[0]
                    scale = 0.01 * mc.mean[best]
                    copies = []
                    for k in (0.0, 1.0, 3.0):
                        noise = rng.normal(k * scale / math.sqrt(samples), scale, samples)
                        copies.append(mc.costs[best] + noise)
                    copies.append(mc.costs[best])  # an exact tie: 0 <= 0
                    mc = self._with_copies_of_best(mc, copies)
                    leaders = mc.leaders()
                    assert [id(e) for e in leaders] == [id(e) for e in self._loop_leaders(mc)]
                    tied += len(leaders) - 1
                    untied += len(mc.feasible) - len(leaders)
                    costs = np.array([e.sample_costs for e in mc.feasible])
                    d = costs[1:] - costs[0]
                    assert [row.mean() for row in d] == d.mean(axis=1).tolist()
                    if samples > 1:
                        assert [row.std(ddof=1) for row in d] == d.std(axis=1, ddof=1).tolist()
        assert tied > 0 and untied > 0

    def test_report_and_metrics(self):
        session = Session(Machine.summit(), cache=EvaluationCache())
        mc = session.mc_robust_plan(JOB, "flaky-links", samples=4, seed=0)
        report = mc.report(top=3)
        assert "MC robust plan" in report and "95% CI" in report
        metrics = session.metrics()
        assert metrics["mc.samples"] == 4
        assert metrics["mc.timeline_events"]["count"] == 4
        assert metrics['session.ops{op="mc_robust_plan"}'] == 1

    def test_evaluations_shared_with_robust_plan_cache(self):
        # the MC matrix and robust_plan price the same (config, scenario)
        # cells: a robust_plan over the same scenarios is all cache hits
        cache = EvaluationCache()
        session = Session(Machine.summit(), cache=cache)
        session.mc_robust_plan(JOB, "flaky-links", samples=4, seed=0)
        before = cache.stats()["entries"]
        job = JOB.with_(fidelity="analytic-batch")
        res = session.robust_plan(
            job, ScenarioSet.of("slow-ring-link", "degraded-ring", None)
        )
        assert cache.stats()["entries"] == before
        assert res.stats["evaluated"] == 0

    def test_invalid_samples_rejected(self):
        session = Session(Machine.summit(), cache=EvaluationCache())
        with pytest.raises(ValueError, match="at least one sample"):
            session.mc_robust_plan(JOB, "calm", samples=0)


# ---------------------------------------------------------------------------
# re-planning
# ---------------------------------------------------------------------------

class TestReplan:
    def test_skewed_failure_repairs_with_finite_break_even(self):
        session = Session(Machine.summit(), cache=EvaluationCache())
        decision = session.replan(
            Job(model="gpt3-2.7b", n_gpus=16), "skewed", at=0.3
        )
        assert decision.remaining_batches == pytest.approx(350.0)
        assert decision.decision == "re-partition"
        chosen = decision.chosen
        assert chosen.total_seconds < decision.ride_seconds
        assert math.isfinite(chosen.break_even_batches)
        assert chosen.break_even_batches == pytest.approx(
            chosen.migration_seconds
            / (decision.ride_batch_time - chosen.batch_time)
        )

    def test_ride_when_no_repair_amortises(self):
        session = Session(Machine.summit(), cache=EvaluationCache())
        decision = session.replan(
            Job(model="gpt3-2.7b", n_gpus=16), "skewed", at=0.3,
            migration_seconds=1e9,
        )
        assert decision.decision == "ride"

    def test_sampled_event_carries_its_own_timestamp(self):
        session = Session(Machine.summit(), cache=EvaluationCache())
        process = get_process("aging-stragglers")
        timeline = next(
            t for t in process.sample_timelines(16, seed=1) if t.events
        )
        decision = session.replan(
            Job(model="gpt3-2.7b", n_gpus=16), timeline.events[0]
        )
        assert decision.at == timeline.events[0].time
        assert decision.scenario == "straggler"

    def test_validation_and_metrics(self):
        session = Session(Machine.summit(), cache=EvaluationCache())
        job = Job(model="gpt3-2.7b", n_gpus=16)
        with pytest.raises(ValueError, match="'at'"):
            session.replan(job, "straggler", at=1.0)
        with pytest.raises(ValueError, match="horizon_batches"):
            session.replan(job, "straggler", horizon_batches=0)
        with pytest.raises(ValueError, match="no pipeline"):
            session.replan(Job(model="vgg19", n_gpus=12), "straggler")
        session.replan(job, "straggler")
        assert session.metrics()["mc.replan_evaluations"] == 4

    def test_round_trip_report_and_json(self):
        session = Session(Machine.summit(), cache=EvaluationCache())
        decision = session.replan(
            Job(model="gpt3-2.7b", n_gpus=16), "straggler", at=0.5
        )
        doc = json.loads(json.dumps(decision.to_dict()))
        assert doc["decision"] in ("ride", "re-partition", "re-place",
                                   "re-partition+re-place")
        for option in doc["options"]:
            be = option["break_even_batches"]
            assert be is None or be > 0  # inf serializes as null
        assert "Re-plan decision" in decision.report()


# ---------------------------------------------------------------------------
# satellites: RNG hygiene and ScenarioSet hardening
# ---------------------------------------------------------------------------

class TestRngHygiene:
    def test_resolve_rng_contract(self):
        g = resolve_rng(3)
        assert resolve_rng(g) is g
        assert resolve_rng(3).integers(1000) == resolve_rng(3).integers(1000)

    def test_spawned_generators_prefix_stable(self):
        a = [g.random() for g in spawn_generators(1, 2)]
        b = [g.random() for g in spawn_generators(1, 6)][:2]
        assert a == b

    def test_random_pruning_same_seed_bit_identical(self):
        from repro.pruning.random_pruning import random_mask_for_shapes

        shapes = {"w1": (32, 64), "w2": (16, 16)}
        m1 = random_mask_for_shapes(shapes, 0.9, rng=7)
        m2 = random_mask_for_shapes(shapes, 0.9, rng=7)
        for name in shapes:
            assert np.array_equal(m1.indices[name], m2.indices[name])

    def test_corpus_batches_same_seed_bit_identical(self):
        from repro.train.data import CharCorpus, batch_iterator

        corpus = CharCorpus(vocab_size=16, length=2000, seed=3)
        x1, y1 = corpus.sample_batch(4, 16, rng=11)
        x2, y2 = corpus.sample_batch(4, 16, rng=11)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
        s1 = [x.sum() + y.sum() for x, y in batch_iterator(corpus, 2, 8, 3, seed=5)]
        s2 = [x.sum() + y.sum() for x, y in batch_iterator(corpus, 2, 8, 3, seed=5)]
        assert s1 == s2

    def test_blob_images_accept_seed(self):
        from repro.train.data import BlobImages

        blobs = BlobImages(n=64, seed=2)
        x1, y1 = blobs.sample_batch(8, rng=4)
        x2, y2 = blobs.sample_batch(8, rng=4)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)


class TestScenarioSetHardening:
    def test_non_normalised_weights_round_trip_identically(self):
        original = ScenarioSet.of(
            "straggler", None, "degraded-ring",
            weights=(3, 2, 5), name="lopsided",
        )
        clone = ScenarioSet.from_dict(json.loads(json.dumps(original.to_dict())))
        assert clone == original
        assert clone.weights == original.weights == (0.3, 0.2, 0.5)
        assert clone.labels() == ("straggler", "neutral", "degraded-ring")

    def test_neutral_member_round_trip(self):
        original = ScenarioSet.of(None, "slow-link", name="mostly-fine")
        clone = ScenarioSet.from_dict(original.to_dict())
        assert clone.scenarios[0] is None
        assert clone == original

    def test_empty_member_list_rejected(self):
        with pytest.raises(ValueError, match="must not be empty"):
            ScenarioSet("empty", ())
        with pytest.raises(ValueError, match="must not be empty"):
            ScenarioSet.of()
        with pytest.raises(ValueError, match="must not be empty"):
            ScenarioSet.from_dict({"name": "empty", "members": []})

    def test_zero_negative_and_non_finite_weights_rejected(self):
        for bad in (0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive finite"):
                ScenarioSet.of("straggler", weights=(bad,))
