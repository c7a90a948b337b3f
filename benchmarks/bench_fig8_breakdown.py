"""Figure 8 — batch-time breakdown of GPT-3 2.7B at 128/256/512 GPUs.

Phases: compute, point-to-point, pipeline bubble, collective, other — for
AxoNN (A) and AxoNN+SAMO (B), as stacked in the paper's figure. Also
reproduces the narrative numbers: at 128 GPUs the p2p improvement is the
largest term (paper: 18% of AxoNN's batch time); at 512 the bubble and
collective improvements dominate (15% and 21%) while p2p fades (4%); the
compression overhead is 8-12%.
"""

from repro.api import Job, Machine, Session
from repro.autotune import EvaluationCache
from repro.reporting import render_table


def test_figure8_breakdown(report):
    session = Session()
    rows, narrative = [], []
    for g in (128, 256, 512):
        job = Job(model="gpt3-2.7b", n_gpus=g)
        a = session.breakdown(job)
        s = session.breakdown(job.with_(framework="axonn+samo"))
        for label, b in (("A=AxoNN", a), ("B=AxoNN+SAMO", s)):
            rows.append(
                {
                    "GPUs": g,
                    "run": label,
                    "compute (s)": round(b.compute, 2),
                    "p2p (s)": round(b.p2p, 2),
                    "bubble (s)": round(b.bubble, 2),
                    "collective (s)": round(b.collective, 2),
                    "other (s)": round(b.other, 2),
                    "total (s)": round(b.total, 2),
                }
            )
        narrative.append(
            f"G={g}: savings as % of AxoNN batch time -> "
            f"p2p {100 * (a.p2p - s.p2p) / a.total:.0f}%, "
            f"bubble {100 * (a.bubble - s.bubble) / a.total:.0f}%, "
            f"collective {100 * (a.collective - s.collective) / a.total:.0f}%, "
            f"compress overhead {100 * s.notes['overhead'] / a.total:.0f}% "
            f"(paper@128: 18/9/6/12; @256: 16/13/11/10; @512: 4/15/21/8)"
        )
    table = render_table(rows, title="Figure 8: GPT-3 2.7B batch-time breakdown")
    report("fig8_breakdown", table + "\n\n" + "\n".join(narrative))

    # Qualitative assertions from the paper's Section VI-C.
    job = Job(model="gpt3-2.7b", n_gpus=128)
    a128 = session.breakdown(job)
    s128 = session.breakdown(job.with_(framework="axonn+samo"))
    p2p_sav = (a128.p2p - s128.p2p) / a128.total
    other_sav = (a128.bubble - s128.bubble + a128.collective - s128.collective) / a128.total
    assert p2p_sav > other_sav  # p2p dominates at 128 GPUs

    job = Job(model="gpt3-2.7b", n_gpus=512)
    a512 = session.breakdown(job)
    s512 = session.breakdown(job.with_(framework="axonn+samo"))
    assert (a512.p2p - s512.p2p) / a512.total < 0.10  # p2p fades at 512
    total_comm_red = (a512.communication - s512.communication) / a512.total
    assert 0.15 < total_comm_red < 0.45  # paper: 40%


def test_bench_breakdown_sweep(benchmark):
    def sweep():
        # a fresh cache per round: stored cells would time cache hits
        session = Session(Machine(), cache=EvaluationCache())
        return [
            session.breakdown(Job(model="gpt3-2.7b", n_gpus=g, framework=fw))
            for g in (128, 256, 512)
            for fw in ("axonn", "axonn+samo")
        ]

    benchmark(sweep)
