"""Ablations of SAMO's design choices (beyond the paper's figures).

Each ablation isolates one decision from Section III and quantifies what
it buys, using the same analytical/measured machinery as the main
experiments:

1. **Shared index tensor** — all compressed state tensors share one int32
   index; the naive alternative stores one per tensor.
2. **1-D flattened view** — indices address the flattened tensor; the
   COO alternative stores one coordinate per dimension (N× memory).
3. **Dense θ16** — SAMO trades 2·p·φ of possible savings for dense-kernel
   compute; the alternative (compress θ16 too, compute sparse) pays the
   Figure 1 kernel gap.
4. **Sparsity sweep** — end-to-end simulated speedup of AxoNN+SAMO over
   AxoNN as the pruning level varies (the paper fixes p=0.9).
5. **G_inter choice** — batch time of forced G_inter values around the
   memory-model choice, validating Eqs. 6-11's "smaller is better, if it
   fits".
"""

import numpy as np

from repro.api import Job, Machine, Session
from repro.autotune import EvaluationCache
from repro.cluster import SUMMIT
from repro.core import samo_breakdown
from repro.models import get_spec
from repro.parallel import StorageMode, choose_g_inter, memory_per_gpu
from repro.reporting import format_bytes, render_table
from repro.sparse import fc_layer_time


def test_ablation_shared_index(report):
    """One shared index vs per-tensor indices (5 compressed tensors)."""
    spec = get_spec("gpt3-2.7b")
    phi = spec.prunable_count
    p = 0.9
    nnz = round((1 - p) * phi)
    shared = samo_breakdown(phi, p).total
    # per-tensor: θ32, ∇θ16, ∇θ32, and two Adam moments each carry an index
    per_tensor = shared + 4 * 4 * nnz
    rows = [
        {"scheme": "shared index (SAMO)", "state bytes": format_bytes(shared)},
        {"scheme": "index per tensor", "state bytes": format_bytes(per_tensor)},
        {"scheme": "penalty", "state bytes": f"+{100 * (per_tensor / shared - 1):.1f}%"},
    ]
    report("ablation_shared_index", render_table(rows, title="Ablation 1: shared index tensor (2.7B, p=0.9)"))
    assert per_tensor > 1.1 * shared


def test_ablation_flat_indices(report):
    """Flattened 1-D indices vs N-d COO coordinates on conv weights."""
    spec = get_spec("wideresnet-101")
    nnz = round(0.1 * spec.prunable_count)
    flat = 4 * nnz  # one int32 per kept value
    coo_4d = 4 * 4 * nnz  # conv weights are 4-D: (O, I, kh, kw)
    rows = [
        {"scheme": "1-D flattened view (SAMO)", "index bytes": format_bytes(flat)},
        {"scheme": "4-D COO coordinates", "index bytes": format_bytes(coo_4d)},
    ]
    report("ablation_flat_indices", render_table(
        rows, title="Ablation 2: index flattening saves N x (WideResnet conv weights)"))
    assert coo_4d == 4 * flat


def test_ablation_dense_theta16(report):
    """Keep θ16 dense (SAMO) vs compress it and compute sparse."""
    spec = get_spec("gpt3-2.7b")
    phi = spec.prunable_count
    p = 0.9
    extra_memory = 2 * phi - 2 * round((1 - p) * phi)  # what compressing θ16 would save
    # compute penalty: Sputnik vs cuBLAS on a d_model-sized GEMM (Fig. 1 model)
    t_dense = fc_layer_time("cublas", 2048, 2560, p)
    t_sparse = fc_layer_time("sputnik", 2048, 2560, p)
    rows = [
        {"quantity": "additional memory if θ16 compressed", "value": format_bytes(extra_memory)},
        {"quantity": "as % of SAMO state", "value": f"{100 * extra_memory / samo_breakdown(phi, p).total:.0f}%"},
        {"quantity": "forward kernel time, dense θ16 (cuBLAS)", "value": f"{t_dense * 1e3:.2f} ms"},
        {"quantity": "forward kernel time, compressed θ16 (Sputnik)", "value": f"{t_sparse * 1e3:.2f} ms"},
        {"quantity": "compute penalty", "value": f"{t_sparse / t_dense:.1f}x"},
    ]
    report("ablation_dense_theta16", render_table(
        rows, title="Ablation 3: why θ16 stays dense (Sec. III-A trade-off)"))
    assert t_sparse / t_dense > 5  # the paper's core motivation


def test_ablation_sparsity_sweep(report):
    """Speedup of AxoNN+SAMO over AxoNN as sparsity varies (2.7B, 512 GPUs)."""
    session = Session()
    rows = []
    speedups = []
    for p in (0.5, 0.6, 0.7, 0.8, 0.9, 0.95):
        job = Job(model="gpt3-2.7b", n_gpus=512, sparsity=p)
        a = session.breakdown(job)
        s = session.breakdown(job.with_(framework="axonn+samo"))
        speedups.append(s.speedup_over(a))
        rows.append({
            "sparsity": p,
            "SAMO G_inter": s.config.g_inter,
            "SAMO total (s)": round(s.total, 2),
            "speedup (%)": round(speedups[-1], 1),
        })
    report("ablation_sparsity_sweep", render_table(
        rows, title="Ablation 4: SAMO speedup vs pruning level (2.7B @512 GPUs)"))
    # more pruning -> at least as small G_inter and at least comparable speedup
    assert speedups[-1] >= speedups[0]


def test_ablation_g_inter_choice(report):
    """Force G_inter around the memory model's choice; the chosen value
    should be the fastest *feasible* one (Eqs. 6-11: smaller G_inter is
    faster, memory permitting)."""
    import dataclasses

    spec = get_spec("gpt3-2.7b")
    job = Job(model="gpt3-2.7b", n_gpus=512, framework="axonn+samo")
    chosen = choose_g_inter(spec, 512, StorageMode.SAMO, 0.9)
    rows = []
    totals = {}
    for gi in (1, 2, 4, 8, 16):
        mem = memory_per_gpu(spec, gi, StorageMode.SAMO, 0.9, g_data=512 // gi)
        feasible = mem <= SUMMIT.gpu_memory_bytes
        # simulate with a calibration whose memory ceiling admits gi
        cal = dataclasses.replace(SUMMIT, gpu_memory_bytes=max(mem + 1, SUMMIT.gpu_memory_bytes))
        b = Session(Machine(cal=cal)).breakdown(job) if gi == chosen else None
        # force by pricing on a machine with a custom memory ceiling
        if b is None or b.config.g_inter != gi:
            cal_forced = dataclasses.replace(SUMMIT, gpu_memory_bytes=mem + 1)
            b = Session(Machine(cal=cal_forced)).breakdown(job)
        totals[gi] = b.total if b.config.g_inter == gi else None
        rows.append({
            "G_inter": gi,
            "mem/GPU": format_bytes(mem),
            "fits 16GB": feasible,
            "total (s)": round(b.total, 3) if totals[gi] else "(not reproducible)",
            "chosen": "<-- memory model" if gi == chosen else "",
        })
    report("ablation_g_inter", render_table(
        rows, title="Ablation 5: forced G_inter vs the memory model's choice (SAMO, 2.7B @512)"))
    feasible_totals = {gi: t for gi, t in totals.items()
                       if t is not None and memory_per_gpu(spec, gi, StorageMode.SAMO, 0.9) <= SUMMIT.gpu_memory_bytes}
    assert chosen in feasible_totals
    assert feasible_totals[chosen] == min(feasible_totals.values())


def test_bench_ablation_sweep(benchmark):
    job = Job(model="gpt3-2.7b", n_gpus=512, framework="axonn+samo")

    def sweep():
        # a fresh cache per round: stored cells would time cache hits
        session = Session(Machine(), cache=EvaluationCache())
        return [session.breakdown(job.with_(sparsity=p)).total for p in (0.5, 0.7, 0.9)]

    benchmark(sweep)
