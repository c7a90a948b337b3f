"""The autotune subsystem: space, estimators, cache, planner, CLI."""

import pytest

from repro.api import Job, Machine, Session
from repro.autotune import (
    AnalyticEstimator,
    CandidateConfig,
    EvaluationCache,
    GLOBAL_CACHE,
    SearchSpace,
    SimulatorEstimator,
    activation_footprint_bytes,
    candidate_memory_per_gpu,
    evaluation_cache_key,
)
from repro.autotune.space import CandidateMemo
from repro.cluster.calibration import SUMMIT, with_memory_budget
from repro.models import get_spec
from repro.parallel import StorageMode, choose_g_inter


@pytest.fixture
def session():
    return Session(Machine(), cache=EvaluationCache())


# ---------------------------------------------------------------------------
# CandidateConfig
# ---------------------------------------------------------------------------

class TestCandidateConfig:
    def test_create_canonicalises_dense_sparsity(self):
        cfg = CandidateConfig.create("axonn", g_inter=4, g_data=8, sparsity=0.9)
        assert cfg.sparsity == 0.0  # dense storage ignores sparsity
        sp = CandidateConfig.create("axonn+samo", g_inter=4, g_data=8, sparsity=0.9)
        assert sp.sparsity == 0.9

    def test_canonical_hash_stable_and_discriminating(self):
        a = CandidateConfig.create("axonn+samo", g_inter=2, g_data=4)
        b = CandidateConfig.create("axonn+samo", g_inter=2, g_data=4)
        c = CandidateConfig.create("axonn+samo", g_inter=4, g_data=2)
        assert a.canonical_hash() == b.canonical_hash()
        assert a.canonical_hash() != c.canonical_hash()

    def test_mode_framework_compatibility(self):
        with pytest.raises(ValueError, match="invalid for"):
            CandidateConfig.create("axonn", mode=StorageMode.SAMO)
        # deepspeed may run ZeRO-1
        cfg = CandidateConfig.create("deepspeed-3d", mode=StorageMode.ZERO1)
        assert cfg.mode is StorageMode.ZERO1

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="unknown framework"):
            CandidateConfig.create("megatron-lm")
        with pytest.raises(ValueError, match="g_inter"):
            CandidateConfig.create("axonn", g_inter=0)
        with pytest.raises(ValueError, match="sparsity"):
            CandidateConfig.create("axonn+samo", sparsity=1.5)

    def test_derived_degrees(self):
        cfg = CandidateConfig.create(
            "deepspeed-3d", g_tensor=2, g_inter=4, g_data=8
        )
        assert cfg.n_gpus == 64
        assert cfg.model_parallel_degree == 8


# ---------------------------------------------------------------------------
# SearchSpace
# ---------------------------------------------------------------------------

class TestSearchSpace:
    def test_candidates_satisfy_structural_constraints(self):
        spec = get_spec("gpt3-2.7b")
        space = SearchSpace(spec, 128)
        seen = 0
        for cfg in space.candidates():
            seen += 1
            assert cfg.n_gpus == 128
            assert cfg.g_inter <= spec.num_layers
            assert spec.batch_size % (cfg.g_data * cfg.mbs) == 0
            if cfg.framework != "deepspeed-3d":
                assert cfg.g_tensor == 1
            assert cfg.g_tensor <= SUMMIT.gpus_per_node
        assert seen == space.stats.generated > 0

    def test_memory_pruning_cuts_before_costing(self):
        spec = get_spec("gpt3-13b")  # 13B cannot fit shallow pipelines
        space = SearchSpace(spec, 256)
        list(space.candidates())
        assert space.stats.pruned_memory > 0

    def test_tiny_budget_prunes_whole_branches(self):
        spec = get_spec("gpt3-2.7b")
        cal = with_memory_budget(6.0)  # barely above the 5 GiB overhead
        space = SearchSpace(spec, 128, cal=cal)
        cands = list(space.candidates())
        assert space.stats.pruned_branches > 0
        # without tensor parallelism sharding the activations, every
        # surviving candidate must checkpoint under this budget
        assert all(
            c.checkpoint_activations for c in cands if c.g_tensor == 1
        ), "uncheckpointed G_tensor=1 branches must be cut under a tight budget"
        assert any(c.g_tensor == 1 for c in cands)

    def test_cnn_space_is_pure_data_parallel(self):
        spec = get_spec("vgg19")
        cands = list(SearchSpace(spec, 16).candidates())
        assert cands, "CNN space must not be empty"
        for cfg in cands:
            assert cfg.g_inter == 1 and cfg.g_tensor == 1
            assert cfg.framework != "sputnik"  # no sparse convolutions

    def test_unknown_framework_rejected(self):
        with pytest.raises(ValueError, match="unknown frameworks"):
            SearchSpace(get_spec("gpt3-xl"), 64, frameworks=("megatron",))

    def test_candidate_memo_reuses_equal_spaces_within_its_bound(self):
        memo = CandidateMemo()
        spec = get_spec("gpt3-13b")
        fresh = SearchSpace(spec, 256)
        expected = list(fresh.candidates())
        first, again = SearchSpace(spec, 256), SearchSpace(get_spec("gpt3-13b"), 256)
        configs, hashes = memo.lookup(first)
        assert list(configs) == expected
        assert hashes == tuple(c.canonical_hash() for c in expected)
        assert memo.lookup(again)[0] is configs  # equal inputs: a hit
        # a hit reports the enumeration's pruning, like a re-enumeration
        assert first.stats == again.stats == fresh.stats
        # fill the memo with newer spaces until their configs alone pass
        # the bound: the oldest space goes
        held, k = 0, 0
        while held <= CandidateMemo.MAX_CONFIGS - len(configs):
            sweep = tuple(i / 20 + k / 1000 for i in range(19))  # ~1,000 configs
            held += len(memo.lookup(SearchSpace(spec, 256, sparsities=sweep))[0])
            k += 1
        assert memo._held <= CandidateMemo.MAX_CONFIGS
        assert memo.lookup(SearchSpace(spec, 256))[0] is not configs  # evicted


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

class TestEstimatorParity:
    """The estimators on the search axes the paper protocol fixes."""

    def test_no_checkpoint_trades_memory_for_compute(self):
        spec = get_spec("gpt3-xl")
        est = AnalyticEstimator(spec)
        ck = est.evaluate(
            CandidateConfig.create("axonn", g_inter=4, g_data=16, mbs=1)
        )
        nock = est.evaluate(
            CandidateConfig.create(
                "axonn", g_inter=4, g_data=16, mbs=1, checkpoint_activations=False
            )
        )
        assert nock.breakdown.compute < ck.breakdown.compute  # no recompute
        assert nock.memory_bytes > ck.memory_bytes  # intermediates resident

    def test_tensor_parallel_shards_memory_and_adds_collectives(self):
        spec = get_spec("gpt3-2.7b")
        est = AnalyticEstimator(spec)
        flat = est.evaluate(
            CandidateConfig.create("deepspeed-3d", g_tensor=1, g_inter=8, g_data=16)
        )
        tp = est.evaluate(
            CandidateConfig.create("deepspeed-3d", g_tensor=2, g_inter=8, g_data=8)
        )
        assert tp.memory_bytes < flat.memory_bytes
        assert tp.breakdown.collective > flat.breakdown.collective

    def test_activation_footprint_checkpoint_vs_not(self):
        spec = get_spec("gpt3-xl")
        assert activation_footprint_bytes(spec, 1, False) > activation_footprint_bytes(
            spec, 1, True
        )

    def test_candidate_memory_matches_partitioner_on_legacy_axes(self):
        from repro.parallel import memory_per_gpu

        spec = get_spec("gpt3-2.7b")
        cfg = CandidateConfig.create(
            "axonn+samo", g_inter=4, g_data=32, mbs=2, sparsity=0.9
        )
        assert candidate_memory_per_gpu(spec, cfg) == memory_per_gpu(
            spec, 4, StorageMode.SAMO, 0.9, mbs=2, g_data=32
        )


class TestSimulatorFidelity:
    def test_sim_bubble_at_least_analytic_warmup(self):
        """The event-driven trace sees warmup/drain the closed form does;
        totals stay in the same ballpark."""
        spec = get_spec("gpt3-2.7b")
        cfg = CandidateConfig.create(
            "axonn+samo", g_inter=4, g_data=32, mbs=1, sparsity=0.9
        )
        an = AnalyticEstimator(spec).evaluate(cfg)
        sim = SimulatorEstimator(spec).evaluate(cfg)
        assert sim.fidelity == "sim"
        assert sim.breakdown.p2p == 0.0  # folded into measured idle
        assert sim.breakdown.bubble > 0.0
        assert sim.total_time == pytest.approx(an.total_time, rel=0.35)

    def test_single_stage_has_no_pipeline_cost(self):
        spec = get_spec("gpt3-xl")
        cfg = CandidateConfig.create(
            "axonn+samo", g_inter=1, g_data=64, mbs=1, sparsity=0.9
        )
        ev = SimulatorEstimator(spec).evaluate(cfg)
        assert ev.breakdown.bubble == 0.0 and ev.breakdown.p2p == 0.0


# ---------------------------------------------------------------------------
# Cache + plan search
# ---------------------------------------------------------------------------

class TestMemoization:
    def test_repeated_search_reevaluates_nothing(self, session):
        job = Job(model="gpt3-xl", n_gpus=64)
        r1 = session.plan(job)
        assert r1.stats.evaluated == r1.stats.candidates > 0
        assert r1.stats.cache_hits == 0

        r2 = Session(Machine(), cache=session.cache).plan(job)
        assert r2.stats.evaluated == 0
        assert r2.stats.cache_hits == r2.stats.candidates
        assert r2.best.config == r1.best.config
        assert r2.best.total_time == r1.best.total_time

    def test_cache_key_separates_fidelity_budget_and_model(self):
        spec_a, spec_b = get_spec("gpt3-xl"), get_spec("gpt3-2.7b")
        cfg = CandidateConfig.create("axonn", g_inter=8, g_data=8)
        k = evaluation_cache_key(SUMMIT, spec_a, "analytic", cfg)
        assert k != evaluation_cache_key(SUMMIT, spec_b, "analytic", cfg)
        assert k != evaluation_cache_key(SUMMIT, spec_a, "sim", cfg)
        assert k != evaluation_cache_key(with_memory_budget(12.0), spec_a, "analytic", cfg)

    def test_global_cache_is_default(self):
        before = len(GLOBAL_CACHE)
        Session(Machine()).plan(Job(model="gpt3-xl", n_gpus=64))
        assert len(GLOBAL_CACHE) >= before

    def test_overlapping_sweeps_share_entries(self, session):
        job = Job(model="gpt3-xl", n_gpus=64)
        session.plan(job)
        n = len(session.cache)
        # same space again inside a different session object
        res = Session(Machine(), cache=session.cache).plan(job)
        assert len(session.cache) == n and res.stats.evaluated == 0


class TestPlannerResults:
    def test_acceptance_samo_beats_dense_with_smaller_g_inter(self, session):
        """ISSUE acceptance: the planner's SAMO pick has smaller G_inter
        and higher estimated throughput than the dense baseline."""
        res = session.plan(Job(model="gpt3-2.7b", n_gpus=512, sparsity=0.9))
        samo = res.best_for("axonn+samo")
        dense = res.best_for("axonn")
        assert samo is not None and dense is not None
        assert samo.config.g_inter < dense.config.g_inter
        assert samo.throughput > dense.throughput
        assert res.best.config.framework == "axonn+samo"

    def test_planner_recovers_partitioner_choice_under_paper_protocol(self, session):
        """With checkpointing fixed on and mbs=1 (the paper's protocol),
        the planner's per-framework G_inter equals choose_g_inter's."""
        spec = get_spec("gpt3-2.7b")
        res = session.plan(
            Job(model="gpt3-2.7b", n_gpus=128),
            microbatch_sizes=(1,),
            explore_no_checkpoint=False,
        )
        samo = res.best_for("axonn+samo")
        dense = res.best_for("axonn")
        assert samo.config.g_inter == choose_g_inter(spec, 128, StorageMode.SAMO, 0.9)
        assert dense.config.g_inter == choose_g_inter(spec, 128, StorageMode.DENSE)

    def test_pareto_frontier_is_nondominated(self, session):
        res = session.plan(Job(model="gpt3-2.7b", n_gpus=256))
        frontier = res.pareto_frontier()
        assert frontier
        for ev in frontier:
            dominated = any(
                o.throughput > ev.throughput and o.memory_bytes <= ev.memory_bytes
                for o in res.feasible
            )
            assert not dominated
        # frontier extremes: fastest overall and smallest-memory feasible
        assert frontier[0].total_time == res.best.total_time
        min_mem = min(e.memory_bytes for e in res.feasible)
        assert frontier[-1].memory_bytes == min_mem

    def test_infeasible_budget_reports_gracefully(self):
        # below framework overhead
        res = Session(Machine.summit(budget_gb=5.5), cache=EvaluationCache()).plan(
            Job(model="gpt3-13b", n_gpus=256)
        )
        assert res.feasible == []
        with pytest.raises(RuntimeError, match="no feasible configuration"):
            _ = res.best
        assert "no feasible" in res.report().lower()

    def test_report_contains_why_and_stats(self, session):
        res = session.plan(Job(model="gpt3-2.7b", n_gpus=512))
        text = res.report()
        assert "Best config" in text
        assert "Pareto frontier" in text
        assert "Why:" in text
        assert "cache hits" in text

    def test_sim_fidelity_end_to_end(self, session):
        res = session.plan(
            Job(model="gpt3-xl", n_gpus=64, fidelity="sim"), microbatch_sizes=(1,)
        )
        assert res.fidelity == "sim"
        assert res.best.fidelity == "sim"

    def test_cnn_planning(self, session):
        res = session.plan(Job(model="vgg19", n_gpus=16))
        assert res.best.config.g_inter == 1
        assert res.best.config.framework in ("axonn", "axonn+samo", "deepspeed-3d")

    def test_unknown_fidelity(self, session):
        with pytest.raises(ValueError, match="unknown fidelity"):
            session.plan(Job(model="gpt3-xl", n_gpus=64, fidelity="exact"))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestPlanCLI:
    def test_plan_command_runs(self, capsys):
        from repro.cli import main

        assert main(["plan", "--model", "gpt3-xl", "--gpus", "64"]) == 0
        out = capsys.readouterr().out
        assert "Best config for gpt3-xl on 64 GPUs" in out
        assert "Pareto frontier" in out

    def test_plan_listed(self, capsys):
        from repro.cli import main

        main(["list"])
        assert "plan" in capsys.readouterr().out

    def test_plan_budget_flag(self, capsys):
        from repro.cli import main

        assert main(
            ["plan", "--model", "gpt3-xl", "--gpus", "64", "--budget-gb", "12"]
        ) == 0
        assert "12.88 GB" in capsys.readouterr().out  # 12 GiB budget in the title

    def test_plan_paper_protocol_flag(self, capsys):
        from repro.cli import main

        assert main(
            ["plan", "--model", "gpt3-2.7b", "--gpus", "128", "--paper-protocol"]
        ) == 0
        out = capsys.readouterr().out
        assert "ckpt" in out
