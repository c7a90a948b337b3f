"""The repro.api facade: Job/Machine/ScenarioSet, Session, registry."""

import json

import pytest

from repro.api import (
    SCENARIO_SETS,
    ClusterScenario,
    Job,
    Machine,
    RobustPlanResult,
    ScenarioSet,
    Session,
    available_fidelities,
    get_scenario_set,
    make_estimator,
    register_estimator,
)
from repro.autotune import (
    AnalyticEstimator,
    EvaluationCache,
    SimulatorEstimator,
    candidate_for_workload,
)
from repro.autotune.estimator import _ESTIMATOR_REGISTRY
from repro.models import get_spec
from repro.parallel.scenarios import get_scenario, resolve_fidelity


# ---------------------------------------------------------------------------
# Job
# ---------------------------------------------------------------------------

class TestJob:
    def test_round_trip_serialization(self):
        job = Job(
            model="gpt3-2.7b", n_gpus=256, framework="axonn+samo",
            sparsity=0.8, mbs=2, partition_mode="time", fidelity="sim",
        )
        assert Job.from_dict(job.to_dict()) == job
        # and through actual JSON text
        assert Job.from_dict(json.loads(json.dumps(job.to_dict()))) == job

    def test_cache_key_stable_across_equivalent_jobs(self):
        a = Job(model="gpt3-xl", n_gpus=64, framework="axonn", mbs=1)
        b = Job(model="gpt3-xl", n_gpus=64)  # same values via defaults
        assert a == b and hash(a) == hash(b)
        assert a.cache_key() == b.cache_key()
        assert a.canonical_hash() == b.canonical_hash()
        c = a.with_(mbs=2)
        assert c.canonical_hash() != a.canonical_hash()

    def test_validation(self):
        with pytest.raises(ValueError, match="n_gpus"):
            Job(model="gpt3-xl", n_gpus=0)
        with pytest.raises(ValueError, match="sparsity"):
            Job(model="gpt3-xl", n_gpus=8, sparsity=1.5)
        with pytest.raises(ValueError, match="partition_mode"):
            Job(model="gpt3-xl", n_gpus=8, partition_mode="bytes")
        with pytest.raises(ValueError, match="unknown framework"):
            Job(model="gpt3-xl", n_gpus=8, framework="megatron")


class TestMachine:
    def test_budget_folds_into_calibration(self):
        m = Machine.summit(budget_gb=12)
        assert m.gpu_memory_bytes == 12 * 1024**3
        assert m.canonical_hash() != Machine().canonical_hash()
        # equal budgets -> equal machines -> equal hashes
        assert m.canonical_hash() == Machine.summit(budget_gb=12).canonical_hash()

    def test_round_trip_serialization(self):
        m = Machine.summit(budget_gb=12)
        back = Machine.from_dict(json.loads(json.dumps(m.to_dict())))
        assert back == m

    def test_topology(self):
        topo = Machine().topology(12)
        assert topo.n_nodes == 2


# ---------------------------------------------------------------------------
# ScenarioSet
# ---------------------------------------------------------------------------

class TestScenarioSet:
    def test_named_sets_resolve(self):
        s = get_scenario_set("mixed-degraded")
        assert s.name == "mixed-degraded"
        assert abs(sum(s.weights) - 1.0) < 1e-12
        with pytest.raises(ValueError, match="unknown scenario set"):
            get_scenario_set("apocalypse")

    def test_neutral_scenarios_canonicalise_to_none(self):
        s = ScenarioSet.of("uniform", "straggler")
        assert s.scenarios[0] is None  # 'uniform' is the identity transform
        assert s.scenarios[1].name == "straggler"
        assert not s.is_neutral_only
        assert SCENARIO_SETS["neutral"].is_neutral_only

    def test_weight_validation(self):
        with pytest.raises(ValueError, match="positive"):
            ScenarioSet("bad", (("straggler", 0.0),))
        with pytest.raises(ValueError, match="must not be empty"):
            ScenarioSet("empty", ())
        with pytest.raises(ValueError, match="duplicate"):
            ScenarioSet.of("straggler", "straggler")

    def test_round_trip_serialization(self):
        s = get_scenario_set("mixed-degraded")
        back = ScenarioSet.from_dict(json.loads(json.dumps(s.to_dict())))
        assert back.labels() == s.labels()
        assert back.weights == s.weights
        assert back.scenarios == s.scenarios


# ---------------------------------------------------------------------------
# estimator registry
# ---------------------------------------------------------------------------

class TestEstimatorRegistry:
    def test_builtin_fidelities_present(self):
        assert {"analytic", "sim"} <= set(available_fidelities())

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ValueError, match="unknown fidelity"):
            make_estimator("exact", get_spec("gpt3-xl"))

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_estimator("sim", lambda *a, **k: None)

    def test_new_fidelity_plugs_in(self):
        class EagerEstimator(AnalyticEstimator):
            fidelity = "eager-test"

        register_estimator(
            "eager-test",
            lambda spec, cal, *, scenario=None, partition_mode="flops": (
                EagerEstimator(spec, cal)
            ),
        )
        try:
            est = make_estimator("eager-test", get_spec("gpt3-xl"))
            assert isinstance(est, EagerEstimator)
            assert "eager-test" in available_fidelities()
        finally:
            del _ESTIMATOR_REGISTRY["eager-test"]

    def test_factory_swallowing_scenario_rejected(self):
        """A backend whose factory drops the scenario must raise, not
        silently price (and cache) the pristine machine."""
        register_estimator(
            "forgetful-test",
            lambda spec, cal, *, scenario=None, partition_mode="flops": (
                SimulatorEstimator(spec, cal)  # scenario not passed through
            ),
        )
        try:
            with pytest.raises(ValueError, match="ignored the requested scenario"):
                make_estimator(
                    "forgetful-test", get_spec("gpt3-xl"), scenario="straggler"
                )
            # without a scenario the backend works normally
            assert make_estimator("forgetful-test", get_spec("gpt3-xl"))
        finally:
            del _ESTIMATOR_REGISTRY["forgetful-test"]


# ---------------------------------------------------------------------------
# the scenario/fidelity contradiction raises at every entry point
# ---------------------------------------------------------------------------

class TestAnalyticScenarioConflict:
    MSG = "event-driven engine"

    def test_shared_validator(self):
        with pytest.raises(ValueError, match=self.MSG):
            resolve_fidelity("analytic", "straggler")
        # unspecified fidelity + scenario = sim (the legacy convenience)
        fid, sc = resolve_fidelity(None, "straggler")
        assert fid == "sim" and sc.name == "straggler"
        assert resolve_fidelity(None, None) == ("analytic", None)

    def test_breakdown_raises_on_explicit_conflict(self):
        job = Job(model="gpt3-xl", n_gpus=64, fidelity="analytic")
        with pytest.raises(ValueError, match=self.MSG):
            Session(Machine()).breakdown(job, scenario="straggler")

    def test_direct_estimator_construction_raises(self):
        """The constructor contract: no post-hoc silently-ignored scenario."""
        with pytest.raises(ValueError, match=self.MSG):
            AnalyticEstimator(get_spec("gpt3-xl"), scenario="straggler")
        # the sim estimator accepts and resolves the same argument
        est = SimulatorEstimator(get_spec("gpt3-xl"), scenario="straggler")
        assert est.scenario.name == "straggler"

    def test_factory_raises(self):
        with pytest.raises(ValueError, match=self.MSG):
            make_estimator("analytic", get_spec("gpt3-xl"), scenario="straggler")

    def test_planner_raises(self):
        job = Job(model="gpt3-xl", n_gpus=32, fidelity="analytic")
        with pytest.raises(ValueError, match=self.MSG):
            Session(Machine()).plan(job, scenario=get_scenario("straggler"))

    def test_session_raises(self):
        job = Job(model="gpt3-xl", n_gpus=32, fidelity="analytic")
        with pytest.raises(ValueError, match=self.MSG):
            Session(Machine()).plan(job, scenario="straggler")
        with pytest.raises(ValueError, match=self.MSG):
            Session(Machine()).robust_plan(job, "mixed-degraded")

    def test_cli_raises(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="event-driven engine"):
            main(["plan", "--model", "gpt3-xl", "--gpus", "32",
                  "--fidelity", "analytic", "--scenarios", "mixed-degraded"])

    def test_analytic_rejects_time_partitioning(self):
        job = Job(model="gpt3-xl", n_gpus=32, fidelity="analytic",
                  partition_mode="time")
        with pytest.raises(ValueError, match="time-balanced"):
            Session(Machine()).plan(job)
        # breakdown agrees with plan: same Job, same rejection
        with pytest.raises(ValueError, match="time-balanced"):
            Session(Machine()).breakdown(job)
        # unset fidelity + time partitioning still works through the sim path
        b = Session(Machine()).breakdown(
            job.with_(fidelity="sim"), scenario="straggler"
        )
        assert b.total > 0

    def test_trace_rejects_unknown_fidelity(self):
        job = Job(model="gpt3-xl", n_gpus=64, fidelity="bogus")
        with pytest.raises(ValueError, match="unknown pipeline_fidelity"):
            Session(Machine()).trace(job)

    def test_cli_rejects_scenario_scenarios_combination(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(["plan", "--model", "gpt3-xl", "--gpus", "32",
                  "--scenarios", "neutral", "--scenario", "straggler"])

    def test_identity_collective_straggler_is_neutral(self):
        """A straggler rank with the default factor 1.0 degrades nothing
        and must canonicalise away like every other identity knob."""
        idle = ClusterScenario("idle-straggler", coll_straggler_rank=0)
        assert not idle.degrades_collectives
        assert idle.is_neutral
        assert ScenarioSet.of(idle).is_neutral_only


# ---------------------------------------------------------------------------
# Session
# ---------------------------------------------------------------------------

class TestSessionBreakdownAndTrace:
    def test_breakdown_matches_legacy_wrapper(self):
        """The total the removed legacy batch wrapper returned."""
        job = Job(model="gpt3-xl", n_gpus=64, framework="axonn+samo")
        b = Session(Machine(), cache=EvaluationCache()).breakdown(job)
        assert b.total == 3.453932216378635

    def test_breakdown_is_the_plan_cell(self):
        """A breakdown is the plan's cell of the paper-protocol config,
        so asking it after the plan prices nothing."""
        job = Job(model="gpt3-xl", n_gpus=64, framework="axonn+samo")
        session = Session(Machine(), cache=EvaluationCache())
        plan = session.plan(job)
        config = candidate_for_workload(get_spec("gpt3-xl"), "axonn+samo", 64)
        (cell,) = [e for e in plan.evaluations if e.config == config]
        misses = session.cache.misses
        assert session.breakdown(job) is cell.breakdown
        assert session.cache.misses == misses

    def test_trace_exposes_schedule(self):
        job = Job(model="gpt3-xl", n_gpus=64, framework="axonn", fidelity="sim")
        trace = Session(Machine()).trace(job)
        assert trace.g_inter >= 1
        assert trace.makespan > 0
        # the batch engine's sim bubble is this trace's exposed cost
        b = Session(Machine()).breakdown(job)
        m = b.config.microbatches
        t_f, t_b = b.notes["t_f"], b.notes["t_b"]
        assert b.bubble == pytest.approx(
            max(trace.makespan - m * (t_f + t_b), 0.0)
        )

    def test_trace_rejects_cnn(self):
        job = Job(model="vgg19", n_gpus=16)
        with pytest.raises(ValueError, match="no pipeline"):
            Session(Machine()).trace(job)


class TestRobustPlan:
    def test_neutral_set_degenerates_to_plan(self):
        """Acceptance: neutral-only robust ranking == plain sim ranking."""
        session = Session(Machine(), cache=EvaluationCache())
        job = Job(model="gpt3-xl", n_gpus=32, fidelity="sim")
        robust = session.robust_plan(job, "neutral", microbatch_sizes=(1,))
        plain = session.plan(job, microbatch_sizes=(1,))
        assert [e.config for e in robust.feasible] == [
            e.config for e in plain.feasible
        ]
        for r, p in zip(robust.feasible, plain.feasible):
            assert r.expected_time == p.total_time  # bit-identical
            assert r.worst_time == p.total_time
        assert robust.best.config == plain.best.config

    def test_expected_between_best_and_worst(self):
        session = Session(Machine(), cache=EvaluationCache())
        job = Job(model="gpt3-xl", n_gpus=32)
        sset = ScenarioSet.of("uniform", "straggler", weights=(0.5, 0.5))
        res = session.robust_plan(job, sset, microbatch_sizes=(1,))
        assert isinstance(res, RobustPlanResult)
        for e in res.entries:
            lo, hi = min(e.per_scenario.values()), max(e.per_scenario.values())
            assert lo <= e.expected_time <= hi
            assert e.worst_time == hi
            assert e.per_scenario[e.worst_scenario] == hi

    def test_evaluations_shared_through_cache(self):
        """Per-(config, scenario) evaluations are reused across calls."""
        cache = EvaluationCache()
        session = Session(Machine(), cache=cache)
        job = Job(model="gpt3-xl", n_gpus=32)
        session.robust_plan(job, "collective-degraded", microbatch_sizes=(1,))
        misses_before = cache.stats()["misses"]
        session.robust_plan(job, "collective-degraded", microbatch_sizes=(1,))
        assert cache.stats()["misses"] == misses_before  # all hits
        # an overlapping single-scenario plan also reuses entries
        session.plan(
            job.with_(fidelity="sim"), scenario="degraded-ring",
            microbatch_sizes=(1,),
        )
        assert cache.stats()["misses"] == misses_before

    def test_fidelity_is_job_level_not_first_scenario_label(self):
        session = Session(Machine(), cache=EvaluationCache())
        job = Job(model="gpt3-xl", n_gpus=32)
        sset = ScenarioSet.of("straggler", "slow-link")
        res = session.robust_plan(job, sset, microbatch_sizes=(1,))
        assert res.fidelity == "sim"  # not "sim@straggler"
        # neutral-only set resolves to the default analytic engine
        neutral = session.robust_plan(job, "neutral", microbatch_sizes=(1,))
        assert neutral.fidelity == "analytic"

    def test_cli_neutral_set_uses_robust_plan_fidelity_rule(self, capsys):
        from repro.cli import main

        assert main(["plan", "--model", "gpt3-xl", "--gpus", "64",
                     "--scenarios", "neutral", "--json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["fidelity"] == "analytic"

    def test_report_and_json(self):
        session = Session(Machine(), cache=EvaluationCache())
        job = Job(model="gpt3-xl", n_gpus=32)
        res = session.robust_plan(job, "neutral", microbatch_sizes=(1,))
        text = res.report()
        assert "Best expected config" in text
        d = json.loads(json.dumps(res.to_dict()))
        assert d["model"] == "gpt3-xl"
        assert d["best"]["expected_time"] == res.best.expected_time
        assert len(d["entries"]) == len(res.entries)


# ---------------------------------------------------------------------------
# serialization of plans and breakdowns
# ---------------------------------------------------------------------------

class TestSerialization:
    def test_breakdown_round_trip(self):
        from repro.parallel import BatchBreakdown

        b = Session(Machine()).breakdown(
            Job(model="gpt3-xl", n_gpus=64, framework="axonn+samo")
        )
        d = json.loads(json.dumps(b.to_dict()))
        back = BatchBreakdown.from_dict(d)
        assert back.total == b.total
        assert back.to_dict() == b.to_dict()

    def test_plan_result_round_trip(self):
        from repro.autotune import PlanResult

        res = Session(Machine(), cache=EvaluationCache()).plan(
            Job(model="gpt3-xl", n_gpus=32), microbatch_sizes=(1,)
        )
        d = json.loads(json.dumps(res.to_dict()))
        back = PlanResult.from_dict(d)
        assert back.best.config == res.best.config
        assert back.best.total_time == res.best.total_time
        assert len(back.evaluations) == len(res.evaluations)
        assert back.stats.candidates == res.stats.candidates

    def test_cli_json_output_parses(self, capsys):
        from repro.cli import main

        assert main(["plan", "--model", "gpt3-xl", "--gpus", "64", "--json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["model"] == "gpt3-xl" and d["fidelity"] == "analytic"
        assert d["best"] is not None
