#!/usr/bin/env python
"""Strong-scaling study on the simulated Summit (paper Figs. 6-8).

Sweeps GPT-3 2.7B from 64 to 512 GPUs across all four frameworks, prints
the Figure 6 series, the Figure 8 batch-time breakdown, and the G_inter
decomposition SAMO's memory savings unlock.

Run:  python examples/scaling_study.py [model]
      model in {gpt3-xl, gpt3-2.7b, gpt3-6.7b, gpt3-13b}; default 2.7B.
"""

import sys

from repro.api import Job, Session
from repro.autotune import FRAMEWORKS
from repro.models import TABLE_I, get_spec, gpu_counts, narayanan_transformer_flops, percent_of_peak
from repro.reporting import log2_axis_plot, render_table


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "gpt3-2.7b"
    spec = get_spec(name)
    session = Session()
    entry = TABLE_I[name]
    counts = gpu_counts(entry)
    print(spec.summary())

    # --- Figure 6/7 style sweep -----------------------------------------------
    rows, series = [], {fw: [] for fw in FRAMEWORKS}
    for g in counts:
        res = {
            fw: session.breakdown(Job(model=name, n_gpus=g, framework=fw))
            for fw in FRAMEWORKS
        }
        for fw in FRAMEWORKS:
            series[fw].append(res[fw].total)
        rows.append({
            "GPUs": g,
            **{fw: f"{res[fw].total:.2f}s" for fw in FRAMEWORKS},
            "SAMO speedup": f"{res['axonn+samo'].speedup_over(res['axonn']):.0f}%",
        })
    print(render_table(rows, title=f"Time per iteration, {name} (p=0.9)"))
    print()
    print(log2_axis_plot(series, counts, title="strong scaling (s, log)"))

    # --- decomposition the memory savings unlock --------------------------------
    print()
    decomp = []
    for g in counts:
        a = session.breakdown(Job(model=name, n_gpus=g))
        s = session.breakdown(Job(model=name, n_gpus=g, framework="axonn+samo"))
        decomp.append({
            "GPUs": g,
            "AxoNN G_inter x G_data": f"{a.config.g_inter} x {a.config.g_data}",
            "SAMO G_inter x G_data": f"{s.config.g_inter} x {s.config.g_data}",
            "AxoNN mem/GPU": f"{a.memory_per_gpu / 2**30:.1f} GiB",
            "SAMO mem/GPU": f"{s.memory_per_gpu / 2**30:.1f} GiB",
        })
    print(render_table(decomp, title="How SAMO's memory savings shrink G_inter (Sec. IV-B)"))

    # --- Figure 8 style breakdown --------------------------------------------------
    print()
    br = []
    for g in counts[-3:]:
        for fw in ("axonn", "axonn+samo"):
            b = session.breakdown(Job(model=name, n_gpus=g, framework=fw))
            br.append({
                "GPUs": g, "framework": fw,
                "compute": f"{b.compute:.2f}", "p2p": f"{b.p2p:.2f}",
                "bubble": f"{b.bubble:.2f}", "collective": f"{b.collective:.2f}",
                "total": f"{b.total:.2f}",
            })
    print(render_table(br, title="Batch-time breakdown, seconds (cf. Figure 8)"))

    if spec.family == "gpt":
        cfg_map = {"gpt3-xl": (24, 2048), "gpt3-2.7b": (32, 2560),
                   "gpt3-6.7b": (32, 4096), "gpt3-13b": (40, 5120)}
        l, h = cfg_map[name]
        flops = narayanan_transformer_flops(spec.batch_size, 2048, l, h, 50257)
        g = counts[-1]
        print()
        for fw in FRAMEWORKS:
            b = session.breakdown(Job(model=name, n_gpus=g, framework=fw))
            pct = percent_of_peak(flops, b.total, g)
            print(f"  % of peak fp16 at {g} GPUs, {fw:12s}: {pct:.1f}%")


if __name__ == "__main__":
    main()
