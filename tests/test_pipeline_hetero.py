"""The heterogeneity-aware pipeline engine and its scenario layer.

Covers the uniform/free-message degeneracy (the engine must reproduce
Eq. 6-7 exactly), the deadlock guard under skewed stage times, per-link
delays and FIFO scheduling, link-contention serialization, the ascii
renderer's partial-final-column fix, and the threading of scenarios
through ``Session.breakdown``, the sim estimator, and the planner.
"""

import pytest

from repro.api import Job, Machine, Session
from repro.autotune import EvaluationCache
from repro.cluster import SerialResource, Topology
from repro.models import get_spec
from repro.parallel import (
    SCENARIOS,
    ClusterScenario,
    bubble_time,
    get_scenario,
    run_scenario,
    simulate_hetero_pipeline,
    simulate_pipeline,
)


class TestUniformLimit:
    """Per-stage sequences with equal entries must behave exactly like the
    historical scalar API — and match the paper's closed form."""

    @pytest.mark.parametrize("g,m", [(2, 4), (3, 5), (4, 8), (8, 16)])
    def test_sequence_inputs_match_scalar_inputs(self, g, m):
        tf, tb = 0.02, 0.06
        scalar = simulate_pipeline(g, m, tf, tb)
        seq = simulate_pipeline(g, m, [tf] * g, [tb] * g, msg_time=[0.0] * (g - 1))
        assert seq.makespan == scalar.makespan
        assert sorted(seq.tasks, key=lambda t: (t.start, t.gpu)) == sorted(
            scalar.tasks, key=lambda t: (t.start, t.gpu)
        )

    @pytest.mark.parametrize("g,m", [(2, 4), (4, 8), (8, 16)])
    def test_uniform_idle_is_eq7_bubble(self, g, m):
        tf, tb = 0.01, 0.03
        trace = simulate_pipeline(g, m, [tf] * g, [tb] * g)
        eq7 = bubble_time(g, tf * g, tb * g)
        for gpu in range(g):
            assert trace.idle_time(gpu) == pytest.approx(eq7, rel=1e-9)

    def test_uniform_limit_with_contention_flag(self):
        """Free messages never contend: the flag must not perturb the
        uniform limit."""
        g, m = 4, 8
        trace = simulate_pipeline(g, m, 1.0, 2.0, link_contention=True)
        assert trace.idle_time(0) == pytest.approx(bubble_time(g, 4.0, 8.0), rel=1e-9)


class TestHeterogeneousStages:
    def test_skewed_stages_complete(self):
        """Deadlock guard holds with strongly skewed per-stage times."""
        tf = [0.1, 1.0, 0.3, 2.5]
        tb = [0.2, 2.0, 0.6, 5.0]
        trace = simulate_pipeline(4, 8, tf, tb)
        assert len(trace.tasks) == 2 * 4 * 8
        # bottleneck bound: the slowest stage is never idle between its
        # m microbatches once it has work
        assert trace.makespan >= 8 * (tf[3] + tb[3])

    def test_straggler_raises_other_gpus_idle(self):
        g, m = 4, 8
        uniform = simulate_pipeline(g, m, 1.0, 2.0)
        straggler = simulate_pipeline(g, m, [1.0, 1.0, 1.0, 1.5], [2.0, 2.0, 2.0, 3.0])
        assert straggler.makespan > uniform.makespan
        assert straggler.idle_time(0) > uniform.idle_time(0)

    def test_skew_with_fifo_scheduling_completes(self):
        """prefer_backward=False (arrival order) under skew + links."""
        trace = simulate_pipeline(
            4, 8, [0.5, 1.5, 1.0, 2.0], [1.0, 3.0, 2.0, 4.0],
            msg_time=[0.2, 0.4, 0.1], prefer_backward=False,
        )
        assert len(trace.tasks) == 2 * 4 * 8

    def test_skew_without_in_flight_bound_completes(self):
        trace = simulate_pipeline(
            3, 6, [1.0, 2.0, 0.5], [2.0, 4.0, 1.0], bound_in_flight=False
        )
        assert len(trace.tasks) == 2 * 3 * 6
        assert trace.peak_in_flight[0] == 6  # GPipe-style: all forwards pile up

    def test_blocking_sends_with_hetero_links(self):
        async_tr = simulate_pipeline(3, 5, 1.0, 2.0, msg_time=[0.5, 0.1])
        blocking = simulate_pipeline(
            3, 5, 1.0, 2.0, msg_time=[0.5, 0.1], blocking_sends=True
        )
        assert blocking.makespan >= async_tr.makespan
        assert len(blocking.tasks) == 2 * 3 * 5


class TestPerLinkDelays:
    def test_slow_link_dominates(self):
        g, m = 4, 8
        fast = simulate_pipeline(g, m, 1.0, 2.0, msg_time=[0.1, 0.1, 0.1])
        slow = simulate_pipeline(g, m, 1.0, 2.0, msg_time=[0.1, 2.0, 0.1])
        assert slow.makespan > fast.makespan
        # the stage downstream of the slow link starves
        assert slow.idle_time(2) > fast.idle_time(2)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            simulate_pipeline(4, 2, 1.0, 2.0, msg_time=[0.1, 0.1])
        with pytest.raises(ValueError):
            simulate_pipeline(4, 2, [1.0, 2.0], 2.0)

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            simulate_pipeline(2, 2, [1.0, -0.5], 2.0)


class TestLinkContention:
    def test_serialization_delays_overlapping_sends(self):
        """Compute faster than the link: async sends overlap without
        contention, queue with it."""
        free = simulate_pipeline(2, 4, 0.1, 0.1, msg_time=1.0)
        cont = simulate_pipeline(2, 4, 0.1, 0.1, msg_time=1.0, link_contention=True)
        assert cont.makespan > free.makespan
        assert cont.link_busy == [pytest.approx(8 * 1.0)]  # 4 fwd + 4 bwd messages

    def test_contention_never_helps(self):
        for msg in (0.05, 0.5, 1.5):
            free = simulate_pipeline(3, 6, 0.3, 0.6, msg_time=msg)
            cont = simulate_pipeline(3, 6, 0.3, 0.6, msg_time=msg, link_contention=True)
            assert cont.makespan >= free.makespan - 1e-12

    def test_serial_resource_fifo(self):
        r = SerialResource("l")
        assert r.acquire(0.0, 2.0) == (0.0, 2.0)
        assert r.acquire(1.0, 2.0) == (2.0, 4.0)  # queued behind the first
        assert r.acquire(9.0, 1.0) == (9.0, 10.0)  # idle gap: starts immediately
        assert r.busy_time == pytest.approx(5.0)
        with pytest.raises(ValueError):
            r.acquire(0.0, -1.0)


class TestAsciiRendering:
    def test_final_partial_column_rendered(self):
        """Regression: int(round(makespan/unit)) dropped the last cells
        whenever the makespan was not a multiple of the unit."""
        trace = simulate_pipeline(3, 5, 1.0, 2.0)  # makespan 21
        art = trace.ascii(0.8)  # 21/0.8 = 26.25 -> 27 columns, round() gave 26
        rows = art.splitlines()
        assert len({len(r) for r in rows}) == 1
        # stage 0 finishes last: its final backward must survive rendering
        assert rows[0].rstrip().endswith("[4]")

    def test_fractional_tasks_render(self):
        trace = simulate_pipeline(1, 1, 0.5, 0.9)  # makespan 1.4
        art = trace.ascii(1.0)
        assert "[0]" in art

    def test_integral_makespan_unchanged(self):
        trace = simulate_pipeline(3, 5, 1.0, 2.0)
        assert len(trace.ascii(1.0).splitlines()[0]) == len("GPU 0: ") + 3 * 21


class TestTopologyLinks:
    def test_pipeline_link_times_cross_node_slower(self):
        topo = Topology(12)  # 6 GPUs/node: link 5-6 crosses nodes
        times = topo.pipeline_link_times(list(range(8)), 10**7)
        assert times[5] > times[0]
        assert times[0] == times[1]

    def test_per_link_payloads(self):
        topo = Topology(4)
        a, b = topo.pipeline_link_times([0, 1, 2], [10**6, 2 * 10**6])
        assert b > a

    def test_length_validation(self):
        with pytest.raises(ValueError):
            Topology(4).pipeline_link_times([0, 1, 2], [10**6])


class TestScenarios:
    def test_presets_all_run(self):
        for name in SCENARIOS:
            trace, info = run_scenario(name, g_inter=4, n_microbatches=6)
            assert len(trace.tasks) == 2 * 4 * 6, name
            assert info["makespan"] == trace.makespan

    def test_uniform_preset_degenerates_to_eq7(self):
        trace, info = run_scenario("uniform", g_inter=4, n_microbatches=8)
        assert info["mean_idle"] == pytest.approx(info["eq7_bubble"], rel=1e-9)

    def test_straggler_preset_worse_than_uniform(self):
        _, uni = run_scenario("uniform")
        _, strag = run_scenario("straggler")
        assert strag["makespan"] > uni["makespan"]

    def test_slow_link_preset_worse_than_flat_links(self):
        _, flat = run_scenario("uniform", msg_time=0.25)
        _, slow = run_scenario("slow-link", msg_time=0.25)
        assert slow["makespan"] > flat["makespan"]

    def test_skewed_preserves_mean_load(self):
        sc = get_scenario("skewed")
        scaled = sc.scale_stage_times([1.0] * 6)
        assert sum(scaled) == pytest.approx(6.0)
        assert scaled[0] < scaled[-1]

    def test_indices_resolve_modulo_depth(self):
        sc = ClusterScenario("x", straggler_stage=-1, straggler_factor=2.0)
        assert sc.scale_stage_times([1.0, 1.0, 1.0]) == [1.0, 1.0, 2.0]

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            get_scenario("nonsense")
        assert get_scenario(None) is None
        sc = SCENARIOS["straggler"]
        assert get_scenario(sc) is sc


class TestModelDerivedPipeline:
    def test_stage_times_conserve_model_time(self):
        spec = get_spec("gpt3-xl")
        trace = simulate_hetero_pipeline(
            spec, g_inter=4, m=8, mbs=1, t_f_model=0.4, t_b_model=1.2
        )
        assert sum(trace.t_f_stages) == pytest.approx(0.4, rel=1e-9)
        assert sum(trace.t_b_stages) == pytest.approx(1.2, rel=1e-9)
        assert len(trace.tasks) == 2 * 4 * 8

    def test_intra_node_hops_cheaper(self):
        """With stages placed densely on ranks, hops inside a node run at
        NVLink class and the node-boundary hop costs more."""
        spec = get_spec("gpt3-2.7b")
        trace = simulate_hetero_pipeline(
            spec, g_inter=8, m=4, mbs=1, t_f_model=0.4, t_b_model=1.2, n_gpus=8
        )
        assert trace.link_times[5] > trace.link_times[0]  # rank 5 -> 6 crosses nodes

    def test_scenario_applied_on_top(self):
        spec = get_spec("gpt3-xl")
        base = simulate_hetero_pipeline(
            spec, g_inter=4, m=8, mbs=1, t_f_model=0.4, t_b_model=1.2
        )
        worse = simulate_hetero_pipeline(
            spec, g_inter=4, m=8, mbs=1, t_f_model=0.4, t_b_model=1.2,
            scenario="straggler",
        )
        assert worse.makespan > base.makespan

    def test_single_stage_trivial(self):
        spec = get_spec("gpt3-xl")
        trace = simulate_hetero_pipeline(
            spec, g_inter=1, m=4, mbs=1, t_f_model=0.4, t_b_model=1.2
        )
        assert trace.link_times == []
        assert trace.makespan == pytest.approx(4 * 1.6)


class TestBatchModelThreading:
    def test_sim_fidelity_runs_and_folds_p2p(self):
        b = Session().breakdown(Job(model="gpt3-2.7b", n_gpus=256, fidelity="sim"))
        assert b.p2p == 0.0
        assert b.bubble > 0.0
        assert b.notes["fidelity"] == "sim"

    def test_scenario_implies_sim_and_costs_more(self):
        """A straggler slow enough to dominate the bottleneck stage must
        lengthen the batch. (Mild stragglers can legitimately *shorten*
        an already-skewed schedule — a Graham-style scheduling anomaly
        the event-driven engine captures and the closed form cannot —
        so the test pins a dominating factor.)"""
        job = Job(model="gpt3-2.7b", n_gpus=256)
        base = Session().breakdown(job.with_(fidelity="sim"))
        hard = ClusterScenario(
            "hard-straggler", straggler_stage=-1, straggler_factor=3.0
        )
        strag = Session().breakdown(job, scenario=hard)
        assert strag.notes["fidelity"] == "sim@hard-straggler"
        assert strag.total > base.total

    def test_sim_close_to_analytic_for_uniform_models(self):
        """GPT stage loads are near-uniform, so the sim path should land
        near the closed form (warmup/messaging effects only)."""
        job = Job(model="gpt3-2.7b", n_gpus=256)
        analytic = Session().breakdown(job)
        sim = Session().breakdown(job.with_(fidelity="sim"))
        assert sim.total == pytest.approx(analytic.total, rel=0.35)

    def test_bad_fidelity_rejected(self):
        with pytest.raises(ValueError):
            Session().breakdown(Job(model="gpt3-xl", n_gpus=64, fidelity="exact"))


class TestPlannerScenario:
    def test_plan_under_straggler(self):
        res = Session(Machine(), cache=EvaluationCache()).plan(
            Job(model="gpt3-xl", n_gpus=32, fidelity="sim"),
            scenario="straggler", microbatch_sizes=(1,),
        )
        assert res.fidelity == "sim@straggler"
        assert res.best.fidelity == "sim@straggler"
        assert res.best.total_time > 0

    def test_single_stage_configs_still_pay_the_scenario(self):
        """Regression: g_inter == 1 short-circuited past the scenario, so
        degraded-machine rankings spuriously favoured single-stage plans
        (a straggler GPU stalls a data-parallel replica all the same)."""
        from repro.autotune.config import CandidateConfig
        from repro.autotune.estimator import SimulatorEstimator

        spec = get_spec("gpt3-xl")
        cfg = CandidateConfig.create("axonn", g_inter=1, g_data=32)
        clean = SimulatorEstimator(spec).evaluate(cfg)
        degraded = SimulatorEstimator(spec, scenario="straggler").evaluate(cfg)
        assert clean.breakdown.bubble == 0.0
        assert degraded.breakdown.bubble > 0.0
        assert degraded.total_time > clean.total_time

    def test_scenario_requires_sim(self):
        with pytest.raises(ValueError):
            Session().plan(
                Job(model="gpt3-xl", n_gpus=32, fidelity="analytic"), scenario="straggler"
            )

    def test_scenario_changes_cache_identity(self):
        from repro.autotune.cache import evaluation_cache_key
        from repro.autotune.config import CandidateConfig
        from repro.cluster import SUMMIT

        spec = get_spec("gpt3-xl")
        cfg = CandidateConfig.create("axonn", g_inter=4, g_data=8)
        assert evaluation_cache_key(SUMMIT, spec, "sim", cfg) != evaluation_cache_key(
            SUMMIT, spec, "sim@straggler", cfg
        )

    def test_same_name_different_params_do_not_alias(self):
        """Regression: cache keys once carried only the scenario *name*,
        so re-planning with a reparameterised scenario of the same name
        returned the first run's stale evaluations."""
        session = Session(Machine(), cache=EvaluationCache())
        job = Job(model="gpt3-xl", n_gpus=32, fidelity="sim")
        mild = ClusterScenario("s", straggler_stage=-1, straggler_factor=1.0)
        harsh = ClusterScenario("s", straggler_stage=-1, straggler_factor=50.0)

        def pipelined_bubbles(res):
            return {
                e.config: e.breakdown.bubble
                for e in res.evaluations
                if e.config.g_inter > 1
            }

        b_mild = pipelined_bubbles(session.plan(job, scenario=mild, microbatch_sizes=(1,)))
        b_harsh = pipelined_bubbles(session.plan(job, scenario=harsh, microbatch_sizes=(1,)))
        shared = set(b_mild) & set(b_harsh)
        assert shared
        assert all(b_harsh[c] > b_mild[c] for c in shared)
