"""Overlap-aware collective exposure + replica placement optimizer.

Pins the tentpole invariants of the overlap/placement PR:

* with ``overlap=True`` under a non-neutral collective scenario the
  exposed comm is *strictly less* than the additive path, while never
  dropping below ``max(0, comm - hideable drain)``;
* ``n_buckets=1`` degenerates to the additive sum exactly;
* ``overlap=False`` / ``placement="block"`` stay byte-identical to the
  additive engine (the goldens in ``test_api_golden.py`` already pin the
  numbers; here we pin the equivalence of the explicit knobs);
* ``Session.place`` never returns a placement worse than the default
  block layout, under any scenario;
* the executable ``BucketedGradSync`` matches the backend all-reduce.
"""

import numpy as np
import pytest

from repro.api import Job, Machine, Session
from repro.autotune import EvaluationCache
from repro.comm import run_parallel
from repro.models import get_spec
from repro.parallel import (
    BucketedGradSync,
    Placement,
    block_placement,
    overlap_exposed_collective,
    place_replicas,
)
from repro.parallel.placement import optimize_placement
from repro.parallel.scenarios import _topology
from repro.cluster import SUMMIT


@pytest.fixture(scope="module")
def session():
    return Session(Machine.summit())


@pytest.fixture(scope="module")
def trace(session):
    return session.trace(
        Job(model="gpt3-2.7b", n_gpus=128, fidelity="sim"), scenario="degraded-ring"
    )


class TestOverlapEngine:
    def test_exposed_strictly_less_and_bounded(self, trace):
        comm = 0.6259578  # the degraded-ring additive collective at 128 GPUs
        for k in (2, 4, 8, 16):
            rep = overlap_exposed_collective(trace, comm, n_buckets=k)
            assert rep.exposed < comm, f"K={k}: no hiding"
            assert rep.exposed >= max(0.0, comm - rep.hideable_window) - 1e-12
            assert rep.exposed + rep.hidden == pytest.approx(comm, abs=1e-15)
            assert rep.n_buckets == k

    def test_one_bucket_is_additive(self, trace):
        """Gradients only final at the very end, one message: no overlap."""
        rep = overlap_exposed_collective(trace, 0.5, n_buckets=1)
        assert rep.exposed == pytest.approx(0.5, abs=1e-15)
        assert rep.hidden == pytest.approx(0.0, abs=1e-15)

    def test_zero_comm_zero_exposure(self, trace):
        rep = overlap_exposed_collective(trace, 0.0)
        assert rep.exposed == 0.0 and rep.hidden == 0.0

    def test_bad_inputs_rejected(self, trace):
        with pytest.raises(ValueError, match="n_buckets"):
            overlap_exposed_collective(trace, 1.0, n_buckets=0)
        with pytest.raises(ValueError, match="comm_time"):
            overlap_exposed_collective(trace, -1.0)

    def test_per_stage_exposure_peaks_at_stage_zero_neighbourhood(self, trace):
        """Stage 0 drains last, so its all-reduce has the least room to
        hide — the critical stage must sit at the front of the pipeline."""
        rep = overlap_exposed_collective(trace, 0.6259578, n_buckets=8)
        assert rep.per_stage_exposed[0] == max(rep.per_stage_exposed)
        assert rep.per_stage_exposed[-1] < rep.per_stage_exposed[0]


class TestOverlapBreakdown:
    def test_overlap_accounting_under_scenario(self, session):
        job = Job(model="gpt3-2.7b", n_gpus=128, fidelity="sim")
        add = session.breakdown(job, scenario="degraded-ring")
        ov = session.breakdown(job.with_(overlap=True), scenario="degraded-ring")
        assert ov.collective > 0.0
        # accounting: exposed + hidden == additive, and the notes carry it
        # (hidden may be negative: each stage rings its actual parameter
        # share, and the embedding-heavy stage 0 carries ~1.6x the
        # uniform shard the additive model charges)
        assert ov.collective_additive == pytest.approx(add.collective, abs=1e-15)
        assert ov.collective + ov.collective_hidden == pytest.approx(
            add.collective, abs=1e-12
        )
        # the heaviest stage's payload bounds how far past the additive
        # charge the exposure can grow
        from repro.parallel.scenarios import stage_payload_fractions

        fractions = stage_payload_fractions(get_spec("gpt3-2.7b"), ov.config.g_inter)
        assert ov.collective <= add.collective * max(fractions) * len(fractions) + 1e-12
        # only the collective phase moved
        assert ov.compute == add.compute
        assert ov.bubble == add.bubble
        assert ov.p2p == add.p2p

    def test_overlap_false_knob_is_byte_identical(self):
        job = Job(model="gpt3-2.7b", n_gpus=128, fidelity="sim")
        base = Session(Machine(), cache=EvaluationCache()).breakdown(job)
        explicit = Session(Machine(), cache=EvaluationCache()).breakdown(
            job.with_(overlap=False, placement="block")
        )
        assert explicit.to_dict() == base.to_dict()

    def test_overlap_implies_sim_fidelity(self, session):
        b = session.breakdown(Job(model="gpt3-2.7b", n_gpus=128, overlap=True))
        assert b.notes["fidelity"] == "sim+overlap"
        assert b.notes["overlap"] is True

    def test_analytic_with_overlap_raises_everywhere(self, session):
        job = Job(model="gpt3-2.7b", n_gpus=128, fidelity="analytic", overlap=True)
        with pytest.raises(ValueError, match="overlap"):
            session.breakdown(job)
        with pytest.raises(ValueError, match="overlap"):
            session.plan(job)

    def test_synchronous_pipeline_keeps_additive(self, session):
        """deepspeed-3d has no asynchronous drain to hide behind."""
        job = Job(
            model="gpt3-2.7b", n_gpus=128, framework="deepspeed-3d", fidelity="sim"
        )
        add = session.breakdown(job)
        ov = session.breakdown(job.with_(overlap=True))
        assert ov.collective == add.collective
        assert ov.notes["overlap"] is False

    def test_plan_fidelity_label_separates_overlap(self, session):
        from repro.autotune import EvaluationCache

        s = Session(Machine.summit(), cache=EvaluationCache())
        job = Job(model="gpt3-xl", n_gpus=32, fidelity="sim")
        p0 = s.plan(job, microbatch_sizes=(1,))
        p1 = s.plan(job.with_(overlap=True), microbatch_sizes=(1,))
        assert p0.fidelity == "sim"
        assert p1.fidelity == "sim+overlap"
        # overlap re-prices only the collective phase: every other phase
        # of every candidate matches the additive plan byte-for-byte
        # (totals may move either way — a param-heavy stage can expose
        # more than the uniform additive charge)
        add = {e.config: e.breakdown for e in p0.evaluations}
        for e in p1.evaluations:
            b = add[e.config]
            assert e.breakdown.compute == b.compute
            # approx: at g_inter == 1 the additive path short-circuits the
            # trace while overlap must run it, leaving a ~1e-16 residue
            assert e.breakdown.bubble == pytest.approx(b.bubble, abs=1e-12)
            assert e.breakdown.p2p == b.p2p
            assert e.breakdown.other == b.other


class TestPlacementOptimizer:
    @pytest.mark.parametrize(
        "model,n_gpus,scenario",
        [
            ("gpt3-2.7b", 16, None),
            ("gpt3-2.7b", 32, "degraded-ring"),
            ("gpt3-xl", 64, "degraded"),
            ("gpt3-xl", 32, "slow-link"),
        ],
    )
    def test_never_worse_than_block_layout(self, session, model, n_gpus, scenario):
        res = session.place(Job(model=model, n_gpus=n_gpus), scenario=scenario)
        assert res.makespan <= res.default_makespan
        assert max(res.chain_times) == res.makespan
        assert res.placement.n_replicas == res.default_placement.n_replicas

    def test_strict_improvement_exists(self, session):
        """gpt3-2.7b on 16 GPUs: the straddling replica's cross-node hop
        can be moved to a cheaper cut — the optimizer must find it."""
        res = session.place(Job(model="gpt3-2.7b", n_gpus=16))
        assert res.makespan < res.default_makespan
        assert not res.is_default
        assert res.improvement_pct > 0

    def test_breakdown_at_best_placement_never_worse(self, session):
        job = Job(model="gpt3-2.7b", n_gpus=16, fidelity="sim")
        block = session.breakdown(job)
        best = session.breakdown(job.with_(placement="best"))
        assert best.total <= block.total
        assert best.bubble <= block.bubble

    def test_place_replicas_low_level(self):
        spec = get_spec("gpt3-xl")
        res = place_replicas(
            spec, g_inter=4, m=8, mbs=1, t_f_model=1.0, t_b_model=3.0, n_gpus=16
        )
        assert res.makespan <= res.default_makespan
        assert len(res.placement.replicas) == 4
        ranks = [r for chain in res.placement.replicas for r in chain]
        assert len(set(ranks)) == len(ranks)  # disjoint replicas

    def test_optimize_placement_respects_chain_objective(self):
        """With a synthetic objective that penalises one specific rank at
        the chain head, the optimizer must route around it."""
        topo = _topology(8, SUMMIT)

        def chain_time(ranks):
            return 10.0 if ranks[0] == 0 else 1.0

        res = optimize_placement(
            topo, g_inter=4, n_replicas=2, chain_time=chain_time
        )
        assert res.default_makespan == 10.0  # block layout roots replica 0 at rank 0
        assert res.makespan == 1.0

    def test_placement_validation(self):
        with pytest.raises(ValueError, match="two replicas"):
            Placement(((0, 1), (1, 2)))
        with pytest.raises(ValueError, match="ragged"):
            Placement(((0, 1), (2,)))
        topo = _topology(12, SUMMIT)
        assert block_placement(topo, 3, 4).n_replicas == 3

    def test_placement_analytic_conflict_raises(self, session):
        with pytest.raises(ValueError, match="placement"):
            session.breakdown(
                Job(model="gpt3-2.7b", n_gpus=16, fidelity="analytic", placement="best")
            )

    def test_cnn_has_no_pipeline_to_place(self, session):
        with pytest.raises(ValueError, match="no pipeline"):
            session.place(Job(model="vgg19", n_gpus=16))

    def test_job_round_trips_new_knobs(self):
        job = Job(model="gpt3-xl", n_gpus=32, overlap=True, placement="best")
        assert Job.from_dict(job.to_dict()) == job
        assert "overlap" in job.describe() and "placement=best" in job.describe()
        with pytest.raises(ValueError, match="placement"):
            Job(model="gpt3-xl", n_gpus=32, placement="nope")


class TestBucketedGradSync:
    def test_matches_backend_allreduce_dense_state(self):
        """Bucketed concatenated all-reduce == per-tensor all-reduce."""
        from repro.core import SAMOConfig
        from repro.tensor import Linear, Sequential, Tensor
        from repro.train.mixed_precision import DenseMixedPrecisionState

        def worker(comm):
            rng = np.random.default_rng(comm.rank)
            net = Sequential(Linear(6, 8, rng=rng), Linear(8, 4, rng=rng))
            state = DenseMixedPrecisionState(net, SAMOConfig(lr=1e-2))
            x = Tensor(rng.standard_normal((3, 6)).astype(np.float32))
            net(x).sum().backward()
            state.compress_gradients()
            want = [
                (comm.allreduce(g.astype(np.float32)) / comm.size).astype(np.float16)
                for g in state.grad16
            ]
            sync = BucketedGradSync(comm, n_buckets=3)
            sync(state)
            got = list(state.grad16)
            return all(np.array_equal(w, g) for w, g in zip(want, got)), sync.buckets_sent

        for ok, buckets in run_parallel(4, worker):
            assert ok
            assert buckets == 3

    def test_bucket_partition_covers_everything(self):
        views = [np.ones(n, dtype=np.float16) for n in (5, 1, 7, 2, 9)]
        sync = BucketedGradSync.__new__(BucketedGradSync)
        sync.n_buckets = 3
        buckets = sync._buckets(views)
        assert 1 <= len(buckets) <= 3
        flat = [v for b in buckets for v in b]
        assert [v.size for v in flat] == [5, 1, 7, 2, 9]

    def test_rejects_unknown_state(self):
        sync = BucketedGradSync(comm=None)
        with pytest.raises(TypeError, match="unsupported training state"):
            sync(object())
