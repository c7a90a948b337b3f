"""Table II — % of peak half-precision throughput, GPT-3 13B, 256-2048 GPUs.

Flops per iteration come from Narayanan et al.'s formula (as in the
paper's Section V-C); Sputnik is credited with the dense flop count per
the paper's fair-comparison convention. Paper values:

    GPUs   Sputnik  DeepSpeed-3D  AxoNN  AxoNN+SAMO
    256    18.9     44.6          43.3   53.4
    512    18.5     39.9          39.7   48.8
    1024   16.8     30.1          32.2   41.1
    2048   12.2     20.6          22.9   31.0
"""

from repro.api import Job, Machine, Session
from repro.autotune import FRAMEWORKS, EvaluationCache
from repro.models import narayanan_transformer_flops, percent_of_peak
from repro.reporting import render_table

PAPER = {
    256: {"sputnik": 18.9, "deepspeed-3d": 44.6, "axonn": 43.3, "axonn+samo": 53.4},
    512: {"sputnik": 18.5, "deepspeed-3d": 39.9, "axonn": 39.7, "axonn+samo": 48.8},
    1024: {"sputnik": 16.8, "deepspeed-3d": 30.1, "axonn": 32.2, "axonn+samo": 41.1},
    2048: {"sputnik": 12.2, "deepspeed-3d": 20.6, "axonn": 22.9, "axonn+samo": 31.0},
}


def test_table2(report):
    session = Session()
    flops = narayanan_transformer_flops(2048, 2048, 40, 5120, 50257)
    rows = []
    measured = {}
    for g in (256, 512, 1024, 2048):
        job = Job(model="gpt3-13b", n_gpus=g)
        pct = {
            fw: percent_of_peak(flops, session.breakdown(job.with_(framework=fw)).total, g)
            for fw in FRAMEWORKS
        }
        measured[g] = pct
        rows.append(
            {
                "GPUs": g,
                "Sputnik": f"{pct['sputnik']:.1f} ({PAPER[g]['sputnik']})",
                "DeepSpeed-3D": f"{pct['deepspeed-3d']:.1f} ({PAPER[g]['deepspeed-3d']})",
                "AxoNN": f"{pct['axonn']:.1f} ({PAPER[g]['axonn']})",
                "AxoNN+SAMO": f"{pct['axonn+samo']:.1f} ({PAPER[g]['axonn+samo']})",
            }
        )
    report(
        "table2_throughput",
        render_table(rows, title="Table II: % peak fp16 throughput, GPT-3 13B (paper in parens)"),
    )
    for g, pct in measured.items():
        # orderings and decline with scale, as in the paper
        assert pct["axonn+samo"] > pct["axonn"] > pct["sputnik"]
        assert pct["axonn+samo"] > pct["deepspeed-3d"]
    assert measured[2048]["axonn+samo"] < measured[256]["axonn+samo"]


def test_bench_throughput_table(benchmark):
    flops = narayanan_transformer_flops(2048, 2048, 40, 5120, 50257)

    def table():
        # a fresh cache per round: stored cells would time cache hits
        session = Session(Machine(), cache=EvaluationCache())
        return [
            percent_of_peak(
                flops,
                session.breakdown(Job(model="gpt3-13b", n_gpus=g, framework=fw)).total,
                g,
            )
            for g in (256, 2048)
            for fw in FRAMEWORKS
        ]

    benchmark(table)
