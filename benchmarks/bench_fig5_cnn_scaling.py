"""Figure 5 — strong scaling of WideResnet-101 and VGG-19 (16-128 GPUs).

Pure data-parallel runs: DeepSpeed-3D, AxoNN, AxoNN+SAMO at 90% sparsity,
batch 128. The paper annotates AxoNN+SAMO's percentage speedup over AxoNN:
7-15% for WideResnet, 18-44% for VGG.
"""

from repro.api import Job, Machine, Session
from repro.autotune import EvaluationCache
from repro.models import TABLE_I, gpu_counts
from repro.reporting import log2_axis_plot, render_table


def _sweep(name, report):
    session = Session()
    counts = gpu_counts(TABLE_I[name])
    rows, series = [], {"DeepSpeed-3D": [], "AxoNN": [], "AxoNN+SAMO": []}
    speedups = []
    for g in counts:
        job = Job(model=name, n_gpus=g)
        d = session.breakdown(job.with_(framework="deepspeed-3d"))
        a = session.breakdown(job)
        s = session.breakdown(job.with_(framework="axonn+samo"))
        speedups.append(s.speedup_over(a))
        series["DeepSpeed-3D"].append(d.total * 1e3)
        series["AxoNN"].append(a.total * 1e3)
        series["AxoNN+SAMO"].append(s.total * 1e3)
        rows.append(
            {
                "GPUs": g,
                "DeepSpeed-3D (ms)": round(d.total * 1e3, 1),
                "AxoNN (ms)": round(a.total * 1e3, 1),
                "AxoNN+SAMO (ms)": round(s.total * 1e3, 1),
                "speedup over AxoNN (%)": round(s.speedup_over(a)),
            }
        )
    table = render_table(rows, title=f"Figure 5: {name} strong scaling (batch 128, p=0.9)")
    plot = log2_axis_plot(series, counts, title=f"Figure 5: {name} (time/iter, ms, log)")
    report(f"fig5_{name.replace('-', '_')}", table + "\n\n" + plot)
    return speedups


def test_figure5_wideresnet(report):
    speedups = _sweep("wideresnet-101", report)
    assert all(3 <= s <= 20 for s in speedups)  # paper band 7-15%


def test_figure5_vgg19(report):
    speedups = _sweep("vgg19", report)
    assert all(5 <= s <= 55 for s in speedups)  # paper band 18-44%
    assert speedups[-1] > speedups[0]


def test_bench_cnn_simulation(benchmark):
    # a fresh cache per round: a stored cell would time a cache hit
    job = Job(model="vgg19", n_gpus=128, framework="axonn+samo")
    benchmark(lambda: Session(Machine(), cache=EvaluationCache()).breakdown(job))
