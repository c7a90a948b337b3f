"""Ablation: the microbatch-size knob in Eqs. 6-11.

The paper fixes ``mbs`` and varies ``G_inter``; its own equations expose
a second lever. Larger microbatches send fewer messages (Eq. 9's
``B/(mbs·G_data)`` factor shrinks) **and** transfer more bytes per
message (amortising the per-message α), but each microbatch takes longer
per stage, so the Eq. 6-7 warmup/drain bubble grows linearly with
``mbs``. This bench sweeps the trade-off with the same batch-time engine
used for Figures 6-8 and locates the optimum the paper's fixed choice
sits near.
"""

import pytest

from repro.api import Job, Machine, Session
from repro.autotune import EvaluationCache
from repro.reporting import render_table

SAMO = Job(model="gpt3-2.7b", n_gpus=256, framework="axonn+samo")


def test_ablation_mbs_sweep(report):
    session = Session()
    g = SAMO.n_gpus
    rows = []
    totals = {}
    for mbs in (1, 2, 4, 8):
        b = session.breakdown(SAMO.with_(mbs=mbs))
        totals[mbs] = b.total
        rows.append({
            "mbs": mbs,
            "p2p (s)": round(b.p2p, 3),
            "bubble (s)": round(b.bubble, 3),
            "collective (s)": round(b.collective, 3),
            "compute (s)": round(b.compute, 3),
            "total (s)": round(b.total, 3),
        })
    report(
        "ablation_mbs",
        render_table(rows, title=f"Microbatch size sweep, GPT-3 2.7B, {g} GPUs, AxoNN+SAMO"),
    )
    # Eq. 9: message count halves as mbs doubles -> p2p strictly falls.
    p2ps = [session.breakdown(SAMO.with_(mbs=m)).p2p for m in (1, 2, 4)]
    assert p2ps[0] > p2ps[1] > p2ps[2]
    # Eq. 6-7: bubble grows with mbs (longer per-microbatch stage times).
    bubbles = [session.breakdown(SAMO.with_(mbs=m)).bubble for m in (1, 2, 4)]
    assert bubbles[0] < bubbles[1] < bubbles[2]


def test_ablation_mbs_and_framework(report):
    """The mbs optimum shifts with the framework: dense AxoNN (larger
    G_inter -> deeper pipeline -> costlier bubble) prefers smaller
    microbatches than AxoNN+SAMO at the same GPU count."""
    session = Session()
    g = SAMO.n_gpus
    rows = []
    best = {}
    for fw in ("axonn", "axonn+samo"):
        sweep = {}
        for mbs in (1, 2, 4, 8):
            sweep[mbs] = session.breakdown(SAMO.with_(framework=fw, mbs=mbs)).total
        best[fw] = min(sweep, key=sweep.get)
        rows.append({
            "framework": fw,
            **{f"mbs={m}": f"{t:.2f}s" for m, t in sweep.items()},
            "best": best[fw],
        })
    report(
        "ablation_mbs_framework",
        render_table(rows, title=f"Batch time vs mbs per framework, GPT-3 2.7B, {g} GPUs"),
    )
    # Both frameworks must have an interior or boundary optimum; SAMO's
    # shallower pipeline tolerates at least as large a microbatch.
    assert best["axonn+samo"] >= best["axonn"]


def test_bench_mbs_sweep(benchmark):
    def sweep():
        # a fresh cache per round: stored cells would time cache hits
        session = Session(Machine(), cache=EvaluationCache())
        return [session.breakdown(SAMO.with_(mbs=m)).total for m in (1, 2, 4)]

    benchmark(sweep)
