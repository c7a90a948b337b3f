"""Figure 6 — strong scaling of GPT-3 XL and GPT-3 2.7B (64-512 GPUs).

Four frameworks: Sputnik (sparse kernels in AxoNN), DeepSpeed-3D, AxoNN,
AxoNN+SAMO. Paper annotations of SAMO-over-AxoNN speedup: XL 10/21/34/47%,
2.7B 10/19/27/34%.
"""

from repro.api import Job, Machine, Session
from repro.autotune import FRAMEWORKS, EvaluationCache
from repro.models import TABLE_I, gpu_counts
from repro.reporting import log2_axis_plot, render_table

PAPER_ANNOTATIONS = {
    "gpt3-xl": {64: 10, 128: 21, 256: 34, 512: 47},
    "gpt3-2.7b": {64: 10, 128: 19, 256: 27, 512: 34},
}


def gpt_sweep(name, report, tag):
    session = Session()
    counts = gpu_counts(TABLE_I[name])
    rows, series = [], {fw: [] for fw in FRAMEWORKS}
    speedups = {}
    for g in counts:
        res = {
            fw: session.breakdown(Job(model=name, n_gpus=g, framework=fw))
            for fw in FRAMEWORKS
        }
        speedups[g] = res["axonn+samo"].speedup_over(res["axonn"])
        for fw in FRAMEWORKS:
            series[fw].append(res[fw].total)
        rows.append(
            {
                "GPUs": g,
                "Sputnik (s)": round(res["sputnik"].total, 2),
                "DeepSpeed-3D (s)": round(res["deepspeed-3d"].total, 2),
                "AxoNN (s)": round(res["axonn"].total, 2),
                "AxoNN+SAMO (s)": round(res["axonn+samo"].total, 2),
                "speedup (%)": round(speedups[g]),
                "paper (%)": PAPER_ANNOTATIONS.get(name, {}).get(g, ""),
            }
        )
    table = render_table(rows, title=f"{tag}: {name} strong scaling (p=0.9)")
    plot = log2_axis_plot(series, counts, title=f"{tag}: {name} time/iter (s, log)")
    report(f"{tag.lower().replace(' ', '')}_{name.replace('-', '_').replace('.', 'p')}", table + "\n\n" + plot)
    return speedups


def test_figure6_gpt3_xl(report):
    speedups = gpt_sweep("gpt3-xl", report, "Figure 6")
    vals = list(speedups.values())
    assert vals[-1] > vals[0]  # speedup grows with scale
    assert all(2 <= v <= 57 for v in vals)


def test_figure6_gpt3_2p7b(report):
    speedups = gpt_sweep("gpt3-2.7b", report, "Figure 6")
    vals = list(speedups.values())
    assert vals[-1] > vals[0]
    assert all(2 <= v <= 44 for v in vals)


def test_bench_hybrid_simulation(benchmark):
    # a fresh cache per round: a stored cell would time a cache hit
    job = Job(model="gpt3-2.7b", n_gpus=512, framework="axonn+samo")
    benchmark(lambda: Session(Machine(), cache=EvaluationCache()).breakdown(job))
