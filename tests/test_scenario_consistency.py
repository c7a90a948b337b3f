"""Cross-layer scenario consistency: analytic model vs event simulator
vs planner as degradation knobs turn.

Two properties hold the whole scenario system together:

(a) **Neutral parity** — a :class:`ClusterScenario` with every knob at
    its neutral value is the identity transform: the ring collectives,
    the pipeline engine, the batch model, and the sim estimator must
    reproduce the scenario-free uniform analytic costs (Eqs. 4-7)
    *exactly*, extending ``test_simulator_consistency.py``'s
    closed-form anchors to the scenario layer.

(b) **Monotone degradation** — turning any knob the wrong way never
    makes the batch cheaper: a slower ring link, a stalling allreduce
    rank, or halved cross-node bandwidth can only increase the
    collective phase, and a slower pipeline link/stage can only
    lengthen the uniform-baseline schedule. (Batch-level *stage*
    stragglers are exempt by design: the event engine reproduces
    Graham-style scheduling anomalies where a mild straggler shortens
    an already-skewed 1F1B schedule — see
    ``test_pipeline_hetero.TestBatchModelThreading`` — so compute-knob
    monotonicity is asserted on the uniform synthetic baseline where no
    prior skew exists.)
"""

import pytest

from repro.cluster import (
    SUMMIT,
    Topology,
    broadcast_time,
    ring_allgather_time,
    ring_allreduce_time,
    ring_reduce_scatter_time,
)
from repro.api import Job, Session
from repro.models import get_spec
from repro.parallel import (
    SCENARIOS,
    ClusterScenario,
    bubble_time,
    collective_time,
    run_scenario,
)

NEUTRAL = ClusterScenario("neutral", "every knob at its identity value")


def _monotone(seq):
    return all(b >= a - 1e-12 for a, b in zip(seq, seq[1:]))


class TestNeutralScenarioParity:
    """(a): all multipliers at 1 reproduce the uniform analytic costs."""

    @pytest.mark.parametrize("nbytes", [0, 10**6, 10**8, 3 * 10**9])
    @pytest.mark.parametrize("group", [1, 2, 8, 64])
    def test_ring_collectives_bit_exact(self, nbytes, group):
        for fn in (
            ring_allreduce_time,
            ring_reduce_scatter_time,
            ring_allgather_time,
            broadcast_time,
        ):
            assert fn(nbytes, group, scenario=NEUTRAL) == fn(nbytes, group)

    @pytest.mark.parametrize("ranks", [[0, 1, 2], [0, 6, 7, 8]])
    def test_topology_aware_collectives_bit_exact(self, ranks):
        topo = Topology(12)
        assert ring_allreduce_time(
            10**8, len(ranks), topology=topo, ranks=ranks, scenario=NEUTRAL
        ) == ring_allreduce_time(10**8, len(ranks), topology=topo, ranks=ranks)

    def test_collective_time_bit_exact(self):
        spec = get_spec("gpt3-2.7b")
        assert collective_time(
            spec, 2, 64, sparse=True, scenario=NEUTRAL
        ) == collective_time(spec, 2, 64, sparse=True)

    @pytest.mark.parametrize("g,m,tf,tb", [(2, 4, 1.0, 2.0), (4, 8, 0.02, 0.06), (8, 16, 0.013, 0.039)])
    def test_pipeline_uniform_limit_is_eq7(self, g, m, tf, tb):
        trace, info = run_scenario(
            NEUTRAL, g_inter=g, n_microbatches=m, t_f=tf, t_b=tb
        )
        eq7 = bubble_time(g, tf * g, tb * g)
        assert info["mean_idle"] == pytest.approx(eq7, rel=1e-12)
        assert trace.makespan == pytest.approx(m * (tf + tb) + eq7, rel=1e-12)
        assert info["allreduce_slowdown"] == 1.0

    @pytest.mark.parametrize("framework", ["axonn", "axonn+samo", "deepspeed-3d"])
    @pytest.mark.parametrize("n_gpus", [32, 64])
    def test_batch_model_neutral_equals_scenario_free(self, framework, n_gpus):
        """Passing the neutral scenario must equal the scenario-free sim
        path in every phase (the collective phase bit-exactly)."""
        job = Job(model="gpt3-xl", n_gpus=n_gpus, framework=framework)
        base = Session().breakdown(job.with_(fidelity="sim"))
        neutral = Session().breakdown(job, scenario=NEUTRAL)
        assert neutral.collective == base.collective
        assert neutral.compute == base.compute
        assert neutral.bubble == pytest.approx(base.bubble, rel=1e-12)
        assert neutral.total == pytest.approx(base.total, rel=1e-12)

    def test_uniform_preset_has_neutral_collectives(self):
        sc = SCENARIOS["uniform"]
        assert not sc.degrades_collectives
        assert sc.collective_beta_multiplier(8) == 1.0
        assert sc.collective_stall_factor(8) == 1.0


class TestMonotoneDegradation:
    """(b): every knob, turned further, never cheapens the batch."""

    SPEC = "gpt3-xl"

    def _totals(self, make, values):
        job = Job(model=self.SPEC, n_gpus=64)
        return [Session().breakdown(job, scenario=make(v)).total for v in values]

    def test_cross_node_multiplier_monotone(self):
        totals = self._totals(
            lambda v: ClusterScenario("x", cross_node_bw_multiplier=v),
            (1.0, 0.8, 0.5, 0.25, 0.1),
        )
        assert _monotone(totals)
        assert totals[-1] > totals[0]

    def test_ring_link_multiplier_monotone(self):
        totals = self._totals(
            lambda v: ClusterScenario("x", ring_link_multipliers=(v, 1.0)),
            (1.0, 0.5, 0.25, 0.125),
        )
        assert _monotone(totals)
        assert totals[-1] > totals[0]

    def test_coll_straggler_factor_monotone(self):
        totals = self._totals(
            lambda v: ClusterScenario("x", coll_straggler_rank=0, coll_straggler_factor=v),
            (1.0, 1.25, 1.5, 2.0, 4.0),
        )
        assert _monotone(totals)
        assert totals[-1] > totals[0]

    def test_pipeline_slow_link_factor_monotone_in_batch(self):
        """Slower link => never-cheaper batch time."""
        totals = self._totals(
            lambda v: ClusterScenario("x", slow_link=1, slow_link_factor=v),
            (1.0, 2.0, 4.0, 8.0),
        )
        assert _monotone(totals)
        assert totals[-1] > totals[0]

    def test_pipeline_straggler_monotone_on_uniform_baseline(self):
        spans = [
            run_scenario(
                ClusterScenario("x", straggler_stage=-1, straggler_factor=v)
            )[0].makespan
            for v in (1.0, 1.25, 1.5, 2.0, 3.0)
        ]
        assert _monotone(spans)
        assert spans[-1] > spans[0]

    def test_pipeline_slow_link_monotone_on_uniform_baseline(self):
        spans = [
            run_scenario(
                ClusterScenario("x", slow_link=1, slow_link_factor=v, base_msg_time=0.25)
            )[0].makespan
            for v in (1.0, 2.0, 4.0, 8.0)
        ]
        assert _monotone(spans)
        assert spans[-1] > spans[0]

    def test_compute_skew_monotone_on_uniform_baseline(self):
        spans = [
            run_scenario(ClusterScenario("x", compute_skew=v))[0].makespan
            for v in (0.0, 0.2, 0.4, 0.6)
        ]
        assert _monotone(spans)
        assert spans[-1] > spans[0]

    def test_allreduce_monotone_in_group_knobs(self):
        """Closed-form check straight on the ring model."""
        n = 10**9
        base = ring_allreduce_time(n, 16)
        for sc in (
            SCENARIOS["degraded-ring"],
            SCENARIOS["ring-straggler"],
            SCENARIOS["slow-ring-link"],
        ):
            assert ring_allreduce_time(n, 16, scenario=sc) > base


class TestScenarioPresets:
    def test_collective_presets_registered(self):
        for name in ("degraded-ring", "ring-straggler", "slow-ring-link", "degraded"):
            assert name in SCENARIOS
            assert SCENARIOS[name].degrades_collectives

    def test_degraded_ring_halves_cross_node_only(self):
        sc = SCENARIOS["degraded-ring"]
        topo = Topology(12)
        intra = [0, 1, 2, 3]
        inter = [0, 6, 7, 8]
        assert ring_allreduce_time(
            10**8, 4, topology=topo, ranks=intra, scenario=sc
        ) == ring_allreduce_time(10**8, 4, topology=topo, ranks=intra)
        assert ring_allreduce_time(
            10**8, 4, topology=topo, ranks=inter, scenario=sc
        ) > ring_allreduce_time(10**8, 4, topology=topo, ranks=inter)

    def test_slowest_ring_link_paces_the_group(self):
        """Per-link multipliers resolve cyclically and the min wins."""
        sc = ClusterScenario("x", ring_link_multipliers=(1.0, 0.5, 0.25))
        assert sc.collective_beta_multiplier(2) == 0.5  # links 0, 1 only
        assert sc.collective_beta_multiplier(5) == 0.25
        assert sc.collective_beta_multiplier(1) == 1.0  # trivial group

    def test_planner_ranks_under_collective_scenario(self):
        job = Job(model="gpt3-xl", n_gpus=32, fidelity="sim")
        res = Session().plan(job, scenario="degraded-ring", microbatch_sizes=(1,))
        assert res.fidelity == "sim@degraded-ring"
        clean = Session().plan(job, microbatch_sizes=(1,))
        degraded = {e.config: e for e in res.evaluations}
        for ev in clean.evaluations:
            if ev.config in degraded and ev.config.g_data > 1:
                assert (
                    degraded[ev.config].breakdown.collective
                    > ev.breakdown.collective
                )

    def test_coll_straggler_respects_group_membership(self):
        """Groups that pass their ranks only stall when the straggler is
        a member; rank-blind callers conservatively assume it is."""
        sc = ClusterScenario("x", coll_straggler_rank=7, coll_straggler_factor=2.0)
        assert sc.collective_stall_factor(4, ranks=[0, 1, 2, 3]) == 1.0
        assert sc.collective_stall_factor(4, ranks=[6, 7, 8, 9]) == 2.0
        assert sc.collective_stall_factor(4) == 2.0  # ranks unknown
        topo = Topology(12)
        with_out = ring_allreduce_time(
            10**8, 4, topology=topo, ranks=[0, 1, 2, 3], scenario=sc
        )
        with_in = ring_allreduce_time(
            10**8, 4, topology=topo, ranks=[6, 7, 8, 9], scenario=sc
        )
        assert with_out == ring_allreduce_time(10**8, 4, topology=topo, ranks=[0, 1, 2, 3])
        assert with_in > with_out

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            ClusterScenario("x", coll_straggler_factor=0.0)
        with pytest.raises(ValueError):
            ClusterScenario("x", coll_straggler_rank=-3)
        with pytest.raises(ValueError):
            ClusterScenario("x", cross_node_bw_multiplier=-0.5)
        with pytest.raises(ValueError):
            ClusterScenario("x", ring_link_multipliers=(1.0, 0.0))

    def test_list_multipliers_coerced_hashable(self):
        """Evaluation-cache keys hash the scenario; list input must not
        break that."""
        sc = ClusterScenario("x", ring_link_multipliers=[0.5, 1.0])
        assert sc.ring_link_multipliers == (0.5, 1.0)
        assert hash(sc) == hash(ClusterScenario("x", ring_link_multipliers=(0.5, 1.0)))
