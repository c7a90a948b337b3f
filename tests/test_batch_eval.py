"""Batch evaluation engine: element-wise parity, cache interop, obs.

The vectorized ``analytic-batch`` fidelity re-expresses Eqs. 6-11 as
numpy array programs over the candidate grid × scenario set. The scalar
:class:`AnalyticEstimator` stays the ground truth, so the contract
pinned here is strict:

* every batch cell matches the scalar path element-wise (time, memory,
  feasibility, and each Figure-8 phase) across ALL named scenario sets
  and both model families — to 1e-9 relative tolerance (in practice the
  drift is exactly 0.0: the array program mirrors the scalar float ops
  in the same association order);
* scalar and batch runs share ``evaluation_cache_key`` entries, so a
  warm-start in either direction is pure cache hits;
* obs counters reconcile on the batch path (``cache.hits +
  cache.misses == planner.candidates``) and the new
  ``estimator.batch_rows`` counter sizes the one-shot pricing;
* ``robust_plan`` prices the full config × scenario matrix in ONE
  ``evaluate_batch`` call and agrees with the per-scenario loop; a
  neutral-only set degenerates to ``plan`` bit-identically;
* the per-stage overlap payloads satellite: uniform fractions reproduce
  the default exactly, and refining one stage's share is monotone.
"""

import numpy as np
import pytest

from repro.api import Job, Machine, Session
from repro.api.scenario_set import SCENARIO_SETS, get_scenario_set
from repro.autotune import (
    AnalyticEstimator,
    CandidateConfig,
    EvaluationCache,
    VectorizedAnalyticEstimator,
    crosscheck_batch,
    evaluation_cache_key,
    make_estimator,
)
from repro.autotune.space import SearchSpace
from repro.models import get_spec
from repro.parallel.scenarios import (
    get_scenario,
    overlap_exposed_collective,
    stage_payload_fractions,
)

#: scenario sets whose every member leaves the pipeline phase alone —
#: the ones the closed-form batch fidelity can price for transformers
COLLECTIVE_ONLY_SETS = ("neutral", "collective-degraded", "hierarchical-mixed")
#: sets with at least one pipeline-degrading member (event engine only)
PIPELINE_SETS = ("mixed-degraded", "pipeline-degraded")


def _columns(set_name):
    return get_scenario_set(set_name).scenarios


@pytest.fixture(scope="module")
def xl_space():
    spec = get_spec("gpt3-xl")
    return spec, list(SearchSpace(spec, 64).candidates())


@pytest.fixture(scope="module")
def cnn_space():
    spec = get_spec("wideresnet-101")
    return spec, list(SearchSpace(spec, 32).candidates())


@pytest.fixture(scope="module")
def session():
    return Session(Machine.summit())


@pytest.fixture(scope="module")
def trace(session):
    return session.trace(
        Job(model="gpt3-2.7b", n_gpus=128, fidelity="sim"), scenario="degraded-ring"
    )


class TestElementWiseParity:
    """evaluate_batch == scalar evaluate, cell by cell, ~1e-9 rel tol."""

    @pytest.mark.parametrize("set_name", COLLECTIVE_ONLY_SETS)
    def test_transformer_grid(self, xl_space, set_name):
        spec, configs = xl_space
        est = VectorizedAnalyticEstimator(spec)
        report = crosscheck_batch(est, configs, _columns(set_name), rel_tol=1e-9)
        assert report["ok"], report["mismatches"]
        assert report["cells"] == len(configs) * len(_columns(set_name))
        assert max(report["max_rel_drift"].values()) <= 1e-9

    @pytest.mark.parametrize("set_name", sorted(SCENARIO_SETS))
    def test_cnn_grid(self, cnn_space, set_name):
        """CNNs run pure data parallel: the pipeline knobs are inert, so
        every named set prices (matching the sim engine's CNN path)."""
        spec, configs = cnn_space
        est = VectorizedAnalyticEstimator(spec)
        report = crosscheck_batch(est, configs, _columns(set_name), rel_tol=1e-9)
        assert report["ok"], report["mismatches"]
        assert max(report["max_rel_drift"].values()) <= 1e-9

    @pytest.mark.parametrize("set_name", PIPELINE_SETS)
    def test_transformer_rejects_pipeline_scenarios(self, xl_space, set_name):
        spec, configs = xl_space
        est = VectorizedAnalyticEstimator(spec)
        with pytest.raises(ValueError, match="degrades the pipeline"):
            est.evaluate_batch(configs[:4], _columns(set_name))

    def test_neutral_column_is_bit_identical_to_plain_analytic(self, xl_space):
        """The neutral column matches AnalyticEstimator exactly — not
        merely within tolerance — so either path may fill the cache."""
        spec, configs = xl_space
        scalar = AnalyticEstimator(spec)
        batch = VectorizedAnalyticEstimator(spec).evaluate_batch(configs)
        for i, config in enumerate(configs):
            ev = scalar.evaluate(config)
            cell = batch.evaluation(i, 0)
            want, got = ev.breakdown.to_dict(), cell.breakdown.to_dict()
            # only the fidelity label may differ — it names the engine
            assert want["notes"].pop("fidelity") == "analytic"
            assert got["notes"].pop("fidelity") == "analytic-batch"
            assert got == want
            assert cell.memory_bytes == ev.memory_bytes
            assert cell.feasible == ev.feasible
            assert cell.batch_size == ev.batch_size

    def test_divisibility_error(self):
        """gpt3-xl's batch of 512 does not split across G_data=3."""
        spec = get_spec("gpt3-xl")
        bad = CandidateConfig.create("axonn", g_data=3)
        with pytest.raises(ValueError, match="not divisible"):
            VectorizedAnalyticEstimator(spec).evaluate_batch([bad])


class TestRegistryAndGating:
    def test_registered_fidelity(self):
        spec = get_spec("gpt3-xl")
        est = make_estimator("analytic-batch", spec)
        assert isinstance(est, VectorizedAnalyticEstimator)
        assert est.fidelity == "analytic-batch"
        assert est.supports_batch and est.supports_scenarios

    def test_rejects_engine_only_knobs(self):
        spec = get_spec("gpt3-xl")
        with pytest.raises(ValueError, match="event-driven"):
            make_estimator("analytic-batch", spec, partition_mode="time")
        with pytest.raises(ValueError, match="event-driven"):
            make_estimator("analytic-batch", spec, overlap=True)
        with pytest.raises(ValueError, match="event-driven"):
            make_estimator("analytic-batch", spec, placement="best")

    def test_constructor_gates_pipeline_scenarios_by_family(self):
        with pytest.raises(ValueError, match="degrades the pipeline"):
            VectorizedAnalyticEstimator(get_spec("gpt3-xl"), scenario="straggler")
        # CNNs accept any scenario: pure DP ignores the pipeline knobs
        VectorizedAnalyticEstimator(get_spec("wideresnet-101"), scenario="straggler")

    def test_scenario_names_resolve(self, xl_space):
        spec, configs = xl_space
        batch = VectorizedAnalyticEstimator(spec).evaluate_batch(
            configs[:3], ["degraded-ring"]
        )
        assert batch.scenarios[0] == get_scenario("degraded-ring")


class TestCacheInterop:
    """Scalar and batch runs share evaluation_cache_key entries."""

    def test_scalar_warm_start_makes_batch_all_hits(self):
        cache = EvaluationCache()
        machine = Machine.summit()
        spec = get_spec("gpt3-xl")
        session = Session(machine, cache=cache)
        # warm the cache through the SCALAR path of the same fidelity
        est = VectorizedAnalyticEstimator(spec, machine.cal)
        for config in SearchSpace(spec, 64, cal=machine.cal).candidates():
            key = evaluation_cache_key(
                machine, spec, "analytic-batch", config,
                scenario=None, partition_mode="flops",
            )
            cache.put(key, est.evaluate(config))
        res = session.plan(Job(model="gpt3-xl", n_gpus=64, fidelity="analytic-batch"))
        assert res.stats.cache_hits == res.stats.candidates
        assert res.stats.evaluated == 0

    def test_batch_cold_run_back_fills_scalar_cells(self):
        cache = EvaluationCache()
        machine = Machine.summit()
        spec = get_spec("gpt3-xl")
        session = Session(machine, cache=cache)
        res = session.plan(Job(model="gpt3-xl", n_gpus=64, fidelity="analytic-batch"))
        assert res.stats.evaluated == res.stats.candidates
        est = VectorizedAnalyticEstimator(spec, machine.cal)
        for ev in res.evaluations:
            key = evaluation_cache_key(
                machine, spec, "analytic-batch", ev.config,
                scenario=None, partition_mode="flops",
            )
            cached = cache.get(key)
            assert cached is not None
            scalar = est.evaluate(ev.config)
            assert cached.breakdown.to_dict() == scalar.breakdown.to_dict()
            assert cached.memory_bytes == scalar.memory_bytes

    def test_replan_is_pure_hits(self):
        session = Session(Machine.summit(), cache=EvaluationCache())
        job = Job(model="gpt3-xl", n_gpus=64, fidelity="analytic-batch")
        first = session.plan(job)
        again = session.plan(job)
        assert first.best.total_time == again.best.total_time
        assert again.stats.cache_hits == again.stats.candidates

    def test_batch_plan_matches_scalar_plan(self):
        """Same ranking, same totals: only the pricing engine changed."""
        machine = Machine.summit()
        job = Job(model="gpt3-xl", n_gpus=64)
        scalar = Session(machine, cache=EvaluationCache()).plan(
            job.with_(fidelity="analytic")
        )
        batch = Session(machine, cache=EvaluationCache()).plan(
            job.with_(fidelity="analytic-batch")
        )
        assert [e.config for e in batch.evaluations] == [
            e.config for e in scalar.evaluations
        ]
        assert [e.total_time for e in batch.evaluations] == [
            e.total_time for e in scalar.evaluations
        ]


class TestObsReconciliation:
    def test_plan_batch_path_counters(self):
        session = Session(Machine.summit(), cache=EvaluationCache())
        res = session.plan(Job(model="gpt3-xl", n_gpus=64, fidelity="analytic-batch"))
        snap = session.registry.snapshot()
        hits = snap.get("planner.cache.hits", 0)
        misses = snap.get("planner.cache.misses", 0)
        assert hits + misses == snap["planner.candidates"] == res.stats.candidates
        assert snap['estimator.batch_rows{fidelity="analytic-batch"}'] == misses
        # ONE pricing call for the whole grid
        assert snap['estimator.calls{fidelity="analytic-batch"}'] == 1

    def test_robust_matrix_counters(self):
        session = Session(Machine.summit(), cache=EvaluationCache())
        job = Job(model="gpt3-xl", n_gpus=64, fidelity="analytic-batch")
        res = session.robust_plan(job, "collective-degraded")
        snap = session.registry.snapshot()
        sset = get_scenario_set("collective-degraded")
        n_labels = len(sset.labels())
        n_cells = res.per_scenario[sset.labels()[0]].stats.candidates * n_labels
        hits = snap.get("planner.cache.hits", 0)
        misses = snap.get("planner.cache.misses", 0)
        assert hits + misses == snap["planner.candidates"] == n_cells
        # the whole miss submatrix is priced in one call
        assert snap['estimator.batch_rows{fidelity="analytic-batch"}'] == misses
        assert snap['estimator.calls{fidelity="analytic-batch"}'] == 1


class TestRobustMatrix:
    def test_matrix_equals_per_scenario_loop(self):
        machine = Machine.summit()
        job = Job(model="gpt3-xl", n_gpus=64, fidelity="analytic-batch")
        matrix = Session(machine, cache=EvaluationCache()).robust_plan(
            job, "collective-degraded"
        )
        loop_session = Session(machine, cache=EvaluationCache())
        sset = get_scenario_set("collective-degraded")
        for label, (scenario, _w) in zip(sset.labels(), sset.items()):
            loop = loop_session.plan(job, scenario=scenario)
            mat = matrix.per_scenario[label]
            assert [e.config for e in mat.evaluations] == [
                e.config for e in loop.evaluations
            ], label
            assert [e.total_time for e in mat.evaluations] == [
                e.total_time for e in loop.evaluations
            ], label

    def test_weighted_reduction(self):
        session = Session(Machine.summit(), cache=EvaluationCache())
        job = Job(model="gpt3-xl", n_gpus=64, fidelity="analytic-batch")
        res = session.robust_plan(job, "hierarchical-mixed")
        sset = get_scenario_set("hierarchical-mixed")
        weights = np.asarray(sset.weights)
        for entry in res.entries[:10]:
            times = np.array([entry.per_scenario[l] for l in sset.labels()])
            assert entry.expected_time == pytest.approx(
                float(times @ weights), rel=1e-12
            )
            assert entry.worst_time == times.max()
            assert entry.per_scenario[entry.worst_scenario] == entry.worst_time

    def test_neutral_set_degenerates_to_plan_bit_identically(self):
        machine = Machine.summit()
        job = Job(model="gpt3-xl", n_gpus=64, fidelity="analytic-batch")
        robust = Session(machine, cache=EvaluationCache()).robust_plan(job, "neutral")
        plain = Session(machine, cache=EvaluationCache()).plan(job)
        assert robust.best.expected_time == plain.best.total_time
        assert robust.best.worst_time == plain.best.total_time
        assert robust.best.worst_scenario == "neutral"
        assert {e.config: e.expected_time for e in robust.entries} == {
            e.config: e.total_time for e in plain.evaluations
        }


class TestPerStageOverlapPayloads:
    """Satellite: per-stage gradient payloads from the PartitionPlan."""

    COMM = 0.6259578  # the degraded-ring additive collective at 128 GPUs

    def test_uniform_fractions_reproduce_default_exactly(self, trace):
        g = trace.g_inter
        default = overlap_exposed_collective(trace, self.COMM, n_buckets=8)
        uniform = overlap_exposed_collective(
            trace, self.COMM, n_buckets=8, stage_fractions=[1.0 / g] * g
        )
        assert uniform.exposed == default.exposed
        assert uniform.per_stage_exposed == default.per_stage_exposed

    def test_monotone_refinement(self, trace):
        """Growing one stage's payload share (renormalised) never
        decreases that stage's exposure, and the accounting identity
        exposed + hidden == additive holds at every refinement."""
        fractions = list(stage_payload_fractions(get_spec("gpt3-2.7b"), trace.g_inter))
        last = None
        for bump in (1.0, 1.5, 2.0, 3.0):
            f = list(fractions)
            f[0] *= bump
            total = sum(f)
            f = [x / total for x in f]
            rep = overlap_exposed_collective(
                trace, self.COMM, n_buckets=8, stage_fractions=f
            )
            assert rep.exposed + rep.hidden == pytest.approx(self.COMM, abs=1e-12)
            stage0 = rep.per_stage_exposed[0]
            if last is not None:
                assert stage0 >= last - 1e-12, f"bump {bump} decreased stage-0 exposure"
            last = stage0

    def test_fractions_validated(self, trace):
        g = trace.g_inter
        with pytest.raises(ValueError, match="stage_fractions"):
            overlap_exposed_collective(trace, 0.5, stage_fractions=[0.5, 0.5])
        with pytest.raises(ValueError, match="stage_fractions"):
            overlap_exposed_collective(
                trace, 0.5,
                stage_fractions=[-0.1] + [1.1 / (g - 1)] * (g - 1),
            )


class TestEvaluationBatchShape:
    def test_soa_arrays_and_totals(self, xl_space):
        spec, configs = xl_space
        columns = _columns("collective-degraded")
        batch = VectorizedAnalyticEstimator(spec).evaluate_batch(configs, columns)
        n, s = len(configs), len(columns)
        assert batch.total.shape == (n, s)
        for phase in ("compute", "p2p", "bubble", "collective", "other"):
            assert getattr(batch, phase).shape == (n, s)
        assert batch.memory_bytes.shape == (n,)
        assert batch.memory_bytes.dtype == np.int64
        assert batch.feasible.dtype == bool
        total = (
            batch.compute + batch.p2p + batch.bubble + batch.collective + batch.other
        )
        assert np.array_equal(batch.total, total)
