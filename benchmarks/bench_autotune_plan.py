"""Autotune planner vs the paper's hand-picked configurations.

The paper fixes one hybrid-parallel config per (model, GPU count) for
Figures 6-8: checkpointing on, mbs 1, and the smallest feasible
power-of-two ``G_inter`` per framework (Section IV-B). Under that same
protocol the planner must *recover* those choices from the raw search
space — and with the protocol relaxed it should only ever find faster
configs, never slower.

Also includes the micro-bench note for the ``functools.lru_cache``
additions to the pure kernel-model functions.
"""

import time

from repro.api import Job, Machine, Session
from repro.autotune import EvaluationCache
from repro.models import TABLE_I, get_spec, gpu_counts
from repro.parallel import StorageMode, choose_g_inter
from repro.reporting import render_table

#: Figure 8 machines for GPT-3 2.7B plus the Figure 6/7 sweep endpoints.
PAPER_PROTOCOL = dict(microbatch_sizes=(1,), explore_no_checkpoint=False)


def _paper_config_time(res, framework: str, g_inter: int) -> float:
    """Total time of the paper's config, read from the same search."""
    for e in res.evaluations:
        c = e.config
        if (
            c.framework == framework
            and c.g_inter == g_inter
            and c.g_tensor == 1
            and c.mbs == 1
            and c.checkpoint_activations
        ):
            return e.total_time
    raise AssertionError(f"paper config {framework}/G_inter={g_inter} not searched")


def _recovery_rows(name: str) -> list[dict]:
    """Per GPU count: the planner must pick the paper's G_inter, or a
    config it proved strictly faster in the same search."""
    spec = get_spec(name)
    rows = []
    for g in gpu_counts(TABLE_I[name]):
        res = Session(Machine(), cache=EvaluationCache()).plan(
            Job(model=name, n_gpus=g), **PAPER_PROTOCOL
        )
        samo, dense = res.best_for("axonn+samo"), res.best_for("axonn")
        paper_samo = choose_g_inter(spec, g, StorageMode.SAMO, 0.9)
        paper_dense = choose_g_inter(spec, g, StorageMode.DENSE)

        def verdict(ev, fw, paper_gi):
            if ev.config.g_inter == paper_gi:
                return "recovered"
            if ev.total_time < _paper_config_time(res, fw, paper_gi):
                return "faster"
            return "WORSE"

        rows.append({
            "GPUs": g,
            "planner G_inter (SAMO)": samo.config.g_inter,
            "paper G_inter (SAMO)": paper_samo,
            "planner G_inter (dense)": dense.config.g_inter,
            "paper G_inter (dense)": paper_dense,
            "SAMO speedup %": round(samo.breakdown.speedup_over(dense.breakdown)),
            "SAMO": verdict(samo, "axonn+samo", paper_samo),
            "dense": verdict(dense, "axonn", paper_dense),
        })
    return rows


def test_planner_recovers_fig6_configs(report):
    """GPT-3 XL and 2.7B (Figure 6, and 2.7B is the Figure 8 subject)."""
    blocks = []
    for name in ("gpt3-xl", "gpt3-2.7b"):
        rows = _recovery_rows(name)
        assert all(r["SAMO"] == "recovered" for r in rows), name
        assert all(r["dense"] in ("recovered", "faster") for r in rows), name
        assert all(2 <= r["SAMO speedup %"] <= 57 for r in rows), name
        blocks.append(render_table(rows, title=f"Plan search vs paper configs: {name}"))
    report("autotune_recovery_fig6", "\n\n".join(blocks))


def test_planner_recovers_fig7_configs(report):
    """GPT-3 6.7B and 13B (Figure 7): exact recovery at every scale."""
    blocks = []
    for name in ("gpt3-6.7b", "gpt3-13b"):
        rows = _recovery_rows(name)
        assert all(r["SAMO"] == "recovered" for r in rows), name
        assert all(r["dense"] == "recovered" for r in rows), name
        blocks.append(render_table(rows, title=f"Plan search vs paper configs: {name}"))
    report("autotune_recovery_fig7", "\n\n".join(blocks))


def test_relaxed_protocol_never_slower(report):
    """Opening the space (mbs, checkpointing off) can only help."""
    rows = []
    for g in (128, 256, 512):
        job = Job(model="gpt3-2.7b", n_gpus=g)
        strict = Session(Machine(), cache=EvaluationCache()).plan(job, **PAPER_PROTOCOL)
        relaxed = Session(Machine(), cache=EvaluationCache()).plan(job)
        assert relaxed.best.total_time <= strict.best.total_time + 1e-12
        rows.append({
            "GPUs": g,
            "paper-protocol best (s)": round(strict.best.total_time, 3),
            "relaxed best (s)": round(relaxed.best.total_time, 3),
            "gain %": round(
                100 * (strict.best.total_time / relaxed.best.total_time - 1), 1
            ),
            "relaxed config": relaxed.best.config.describe(),
        })
    report(
        "autotune_relaxed_protocol",
        render_table(rows, title="What-if: relaxing the paper's training protocol"),
    )


def test_memoized_replan_is_instant(report):
    """The ISSUE's acceptance check: a repeated identical search returns
    from the cache without re-evaluating any config."""
    cache = EvaluationCache()
    job = Job(model="gpt3-2.7b", n_gpus=512)
    t0 = time.perf_counter()
    r1 = Session(Machine(), cache=cache).plan(job)
    cold = time.perf_counter() - t0

    t0 = time.perf_counter()
    r2 = Session(Machine(), cache=cache).plan(job)
    warm = time.perf_counter() - t0

    assert r2.stats.evaluated == 0
    assert r2.stats.cache_hits == r1.stats.candidates
    note = (
        f"cold plan: {r1.stats.candidates} candidates evaluated in {cold*1e3:.1f} ms\n"
        f"warm replan: 0 evaluated, {r2.stats.cache_hits} cache hits, {warm*1e3:.1f} ms\n"
        f"speedup: {cold/warm:.1f}x"
    )
    report("autotune_memoization", note)


def test_lru_cache_micro_note(report):
    """Micro-bench note for the lru_cache satellite: the pure kernel-model
    functions are called with a handful of distinct shapes thousands of
    times per figure sweep; caching removes the recomputation.

    The baseline times the *unwrapped* ``fc_layer_time`` (two calls per
    ratio, what ``sparse_over_dense_ratio`` computes internally) so no
    layer of caching hides the real work. Correctness is asserted on
    ``cache_info`` counts; the timings go to the note only (wall-clock
    comparisons flake on shared CI runners).
    """
    from repro.sparse.kernel_models import fc_layer_time, sparse_over_dense_ratio

    sizes = (128, 256, 512, 1024, 2048, 4096)
    n_calls = 2000

    t0 = time.perf_counter()
    for _ in range(n_calls):
        for n in sizes:
            fc_layer_time.__wrapped__("sputnik", 576, n, 0.9)
            fc_layer_time.__wrapped__("cublas", 576, n, 0.9)
    uncached = time.perf_counter() - t0

    sparse_over_dense_ratio.cache_clear()
    fc_layer_time.cache_clear()
    t0 = time.perf_counter()
    for _ in range(n_calls):
        for n in sizes:
            sparse_over_dense_ratio(n)
    cached = time.perf_counter() - t0

    info = sparse_over_dense_ratio.cache_info()
    assert info.misses == len(sizes)
    assert info.hits == n_calls * len(sizes) - len(sizes)
    assert fc_layer_time.cache_info().currsize == 2 * len(sizes)
    report(
        "lru_cache_micro_note",
        f"kernel-model evaluation, {n_calls} x {len(sizes)} shapes:\n"
        f"  uncached fc_layer_time pairs {uncached*1e3:.1f} ms, "
        f"lru_cached sparse_over_dense_ratio {cached*1e3:.1f} ms "
        f"({uncached/max(cached, 1e-9):.0f}x)\n"
        f"  cache_info: {info}",
    )


def test_bench_plan_cold(benchmark):
    """pytest-benchmark hook: one full cold search of the 512-GPU space."""
    def cold_plan():
        return Session(Machine(), cache=EvaluationCache()).plan(
            Job(model="gpt3-2.7b", n_gpus=512)
        )

    result = benchmark(cold_plan)
    assert result.best.config.framework == "axonn+samo"
