"""Write the golden Figure-8 breakdown corpus ``breakdowns.json``.

Each case is one :meth:`repro.api.Session.breakdown` question drawn from
a fixed seed: the four GPT models and both CNNs, all four frameworks,
every registered fidelity (``analytic``, ``analytic-batch``, ``sim``,
``measured``), pipeline and collective scenarios, overlap, best
placement, time-balanced partitioning, two sparsities and two
microbatch sizes. A record holds the job, the scenario name and either
the full ``BatchBreakdown.to_dict()`` or the error text the question
raises (a CNN under Sputnik has no sparse convolutions).

``tests/test_breakdown_golden.py`` asks every question again and asserts
``==`` on every field. Regenerate only when a breakdown is meant to
change::

    PYTHONPATH=src python tests/golden/make_breakdowns.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro.api import Job, Machine, Session
from repro.autotune.cache import EvaluationCache

OUT = Path(__file__).with_name("breakdowns.json")
SEED = 1901
N_SIM = 96

FRAMEWORKS = ("axonn", "axonn+samo", "deepspeed-3d", "sputnik")
#: model -> GPU counts its Figure 6/7 sweeps cover
GPT_GPUS = {
    "gpt3-xl": (16, 64, 256),
    "gpt3-2.7b": (32, 128, 512),
    "gpt3-6.7b": (64, 256),
    "gpt3-13b": (128, 512),
}
CNN_GPUS = {"vgg19": (16, 128), "wideresnet-101": (32, 64)}
#: smaller machines for the event-engine draws; placement search grows
#: with replicas x stages, so only the two shallow models draw "best"
SIM_GPUS = {
    "gpt3-xl": (16, 64),
    "gpt3-2.7b": (16, 32),
    "gpt3-6.7b": (32, 64),
    "gpt3-13b": (64, 128),
}
#: presets the closed-form batch fidelity prices (collective knobs only)
COLLECTIVE_SCENARIOS = ("degraded-ring", "ring-straggler", "slow-ring-link", "hierarchical")
SIM_SCENARIOS = (
    None, "uniform", "straggler", "slow-link", "skewed", "contention",
    "degraded-ring", "ring-straggler", "slow-ring-link", "degraded",
    "hierarchical", "hierarchical-degraded",
)


def cases() -> list[tuple[Job, str | None]]:
    """The corpus questions: fixed sweeps per fidelity, then ``N_SIM``
    seeded event-engine draws over every knob."""
    out = []
    for model, gpus in GPT_GPUS.items():
        for fw in FRAMEWORKS:
            for g in gpus:
                out.append((Job(model=model, n_gpus=g, framework=fw, fidelity="analytic"), None))
            g = gpus[0]
            out.append((Job(model=model, n_gpus=g, framework=fw, fidelity="measured"), None))
            out.append((Job(model=model, n_gpus=g, framework=fw, fidelity="analytic-batch"), None))
            out.append((
                Job(model=model, n_gpus=gpus[-1], framework=fw, sparsity=0.75,
                    fidelity="analytic-batch"),
                COLLECTIVE_SCENARIOS[FRAMEWORKS.index(fw)],
            ))
    for model, gpus in CNN_GPUS.items():
        for fw in FRAMEWORKS:
            # CNN SAMO and Sputnik jobs are pinned on the analytic and
            # event-engine fidelities, the ones that charged SAMO's
            # compression overhead and rejected Sputnik convolutions
            # when the corpus was written
            dense = fw in ("axonn", "deepspeed-3d")
            fidelities = ("analytic", "analytic-batch", "sim", "measured") if dense else ("analytic", "sim")
            for g in gpus:
                for fidelity in fidelities:
                    out.append((Job(model=model, n_gpus=g, framework=fw, fidelity=fidelity), None))
            out.append((Job(model=model, n_gpus=gpus[0], framework=fw, overlap=True), "straggler"))
            if dense:
                out.append((
                    Job(model=model, n_gpus=gpus[-1], framework=fw, fidelity="analytic-batch"),
                    "degraded-ring",
                ))
    rng = random.Random(SEED)
    for _ in range(N_SIM):
        model = rng.choice(sorted(SIM_GPUS))
        placement = rng.choice(("block", "best"))
        if model not in ("gpt3-xl", "gpt3-2.7b"):
            placement = "block"
        job = Job(
            model=model,
            n_gpus=rng.choice(SIM_GPUS[model]),
            framework=rng.choice(FRAMEWORKS),
            sparsity=rng.choice((0.9, 0.75)),
            mbs=rng.choice((1, 2)),
            partition_mode=rng.choice(("flops", "time")),
            fidelity="sim",
            overlap=rng.random() < 0.5,
            placement=placement,
        )
        out.append((job, rng.choice(SIM_SCENARIOS)))
    return out


def record(session: Session, job: Job, scenario: str | None) -> dict:
    rec = {"job": job.to_dict(), "scenario": scenario}
    try:
        rec["breakdown"] = session.breakdown(job, scenario=scenario).to_dict()
    except ValueError as err:
        rec["error"] = str(err)
    return rec


def main() -> None:
    session = Session(Machine.summit(), cache=EvaluationCache())
    records = [record(session, job, scenario) for job, scenario in cases()]
    OUT.write_text(json.dumps(records, indent=1) + "\n")
    n_err = sum("error" in r for r in records)
    print(f"wrote {len(records)} breakdowns ({n_err} errors) to {OUT}")


if __name__ == "__main__":
    main()
