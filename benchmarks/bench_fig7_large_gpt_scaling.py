"""Figure 7 — strong scaling of GPT-3 6.7B (128-1024 GPUs) and 13B
(256-2048 GPUs). Paper annotations: 6.7B 11/16/22/23%, 13B 19/19/22/26%.
"""

from benchmarks.bench_fig6_gpt_scaling import gpt_sweep
from repro.api import Job, Machine, Session
from repro.autotune import EvaluationCache

PAPER = {
    "gpt3-6.7b": {128: 11, 256: 16, 512: 22, 1024: 23},
    "gpt3-13b": {256: 19, 512: 19, 1024: 22, 2048: 26},
}


def test_figure7_gpt3_6p7b(report):
    speedups = gpt_sweep("gpt3-6.7b", report, "Figure 7")
    vals = list(speedups.values())
    assert vals[-1] > vals[0]
    assert all(3 <= v <= 33 for v in vals)


def test_figure7_gpt3_13b(report):
    speedups = gpt_sweep("gpt3-13b", report, "Figure 7")
    vals = list(speedups.values())
    assert all(9 <= v <= 36 for v in vals)  # paper band 19-26%


def test_bench_largest_configuration(benchmark):
    # a fresh cache per round: a stored cell would time a cache hit
    job = Job(model="gpt3-13b", n_gpus=2048, framework="axonn+samo")
    benchmark(lambda: Session(Machine(), cache=EvaluationCache()).breakdown(job))
