"""Cross-fidelity drift report over the paper's Fig. 6-8 templates.

One question, asked three ways: *how far apart are the closed forms,
the event engine, and the executed schedule?* For each figure template
(model, GPU count, framework) the report prices the workload's
decomposition under ``analytic`` (ground reference), ``analytic-batch``
(the vectorized array program, audited through its real
``evaluate_batch`` path), ``sim`` (the event-driven 1F1B engine) and
``measured`` (:mod:`repro.autotune.measured` — the executed proxy
schedule), and records per-phase relative drift against the analytic
row. A calibration block runs
:func:`repro.cluster.calibration.fit_calibration` on seeded synthetic
timings and records the recovery error of every fitted constant.

Everything here is byte-deterministic per seed: the measured fidelity
prices a deterministic event replay (wall clock never enters), the
synthetic calibration samples come from :mod:`repro.rng`-seeded
streams, and the JSON document is emitted with sorted keys — the CI
smoke runs the report twice and ``cmp``'s the bytes.

:data:`DRIFT_TOLERANCES` is the enforced contract: the ``repro drift``
CLI and ``benchmarks/bench_fidelity_drift.py`` both fail when any
measured phase drifts beyond its floor. The floors are generous where
the structures genuinely differ (the executed GPipe warmup/drain vs
Eq. 7's closed form; boundary-stage message counts vs Eq. 9's
interior-GPU accounting) and tight where they must agree (compute,
which shares the device model).
"""

from __future__ import annotations

import json

from ..cluster.calibration import (
    SUMMIT,
    SummitCalibration,
    fit_calibration,
    synthetic_comm_samples,
)
from ..models import get_spec
from .config import candidate_for_workload

__all__ = [
    "FIG_TEMPLATES",
    "DRIFT_PHASES",
    "DRIFT_TOLERANCES",
    "drift_report",
    "drift_report_json",
    "render_drift_report",
]

#: the Fig. 6-8 config templates: (figure, model, n_gpus, framework)
FIG_TEMPLATES = (
    ("fig6", "gpt3-xl", 64, "axonn"),
    ("fig6", "gpt3-xl", 64, "axonn+samo"),
    ("fig6", "gpt3-2.7b", 128, "axonn"),
    ("fig6", "gpt3-2.7b", 128, "axonn+samo"),
    ("fig7", "gpt3-6.7b", 256, "axonn+samo"),
    ("fig7", "gpt3-13b", 512, "axonn+samo"),
    ("fig8", "gpt3-2.7b", 256, "axonn"),
    ("fig8", "gpt3-2.7b", 256, "deepspeed-3d"),
)

#: phase rows of the drift report (same order as the CLI drift table)
DRIFT_PHASES = ("compute", "p2p", "bubble", "collective", "other", "total")

#: enforced per-phase ceilings on |measured - analytic| / analytic.
#: compute and other share the device model with the closed form and must
#: track it; p2p admits the boundary-vs-interior message-count gap
#: (first/last stages send 2m messages, Eq. 9 charges every GPU the
#: interior 4m) plus the replay's warmup serialization; bubble admits the
#: replay's message-latency contribution to warmup/drain on top of
#: Eq. 7's compute-only closed form; collective admits the per-bucket
#: latency overhead the executed bucketed all-reduce pays over the
#: monolithic ring.
DRIFT_TOLERANCES = {
    "compute": 1e-6,
    "p2p": 0.60,
    "bubble": 0.80,
    "collective": 0.50,
    "other": 1e-6,
    "total": 0.35,
}


def _phase_entry(reference, others: dict) -> dict:
    entry = {"analytic": reference}
    for fid, value in others.items():
        drift = (
            0.0 if value == reference
            else abs(value - reference) / max(abs(reference), 1e-300)
        )
        entry[fid] = value
        entry[f"{fid}_rel_drift"] = drift
    return entry


def drift_report(
    *,
    seed: int = 0,
    quick: bool = False,
    templates=None,
    cal: SummitCalibration = SUMMIT,
) -> dict:
    """Per-phase analytic/sim/measured drift over the figure templates.

    ``quick`` keeps only the first template (the CI smoke);
    ``templates`` overrides the set entirely. The returned document also
    carries the enforced tolerances, each template's worst offending
    phase, and the calibration-fit recovery block — everything the CLI
    and the bench need to pass or fail a run.
    """
    from .estimator import make_estimator

    if templates is None:
        templates = FIG_TEMPLATES[:1] if quick else FIG_TEMPLATES
    rows = []
    violations = []
    for figure, model, n_gpus, framework in templates:
        spec = get_spec(model)
        config = candidate_for_workload(spec, framework, n_gpus, cal=cal)
        evals = {
            "analytic": make_estimator("analytic", spec, cal).evaluate(config),
            "analytic-batch": (
                make_estimator("analytic-batch", spec, cal)
                .evaluate_batch([config])
                .evaluation(0, 0)
            ),
            "sim": make_estimator("sim", spec, cal).evaluate(config),
            "measured": make_estimator("measured", spec, cal, seed=seed)
            .evaluate(config),
        }
        phases = {}
        worst = {"phase": None, "rel_drift": 0.0}
        for phase in DRIFT_PHASES:
            reference = getattr(evals["analytic"].breakdown, phase)
            entry = _phase_entry(
                reference,
                {
                    fid: getattr(evals[fid].breakdown, phase)
                    for fid in ("analytic-batch", "sim", "measured")
                },
            )
            entry["tolerance"] = DRIFT_TOLERANCES[phase]
            entry["within_tolerance"] = (
                entry["measured_rel_drift"] <= DRIFT_TOLERANCES[phase]
            )
            if not entry["within_tolerance"]:
                violations.append(
                    f"{figure}/{model}/{framework}: {phase} measured drift "
                    f"{entry['measured_rel_drift']:.3f} > "
                    f"{DRIFT_TOLERANCES[phase]:.3f}"
                )
            if entry["measured_rel_drift"] >= worst["rel_drift"]:
                worst = {
                    "phase": phase, "rel_drift": entry["measured_rel_drift"]
                }
            phases[phase] = entry
        rows.append(
            {
                "figure": figure,
                "model": model,
                "n_gpus": n_gpus,
                "framework": framework,
                "config": list(config.canonical_key()),
                "phases": phases,
                "worst_measured": worst,
            }
        )

    base = cal
    fitted = fit_calibration(synthetic_comm_samples(base, seed=seed, noise=0.02), base)
    calibration = {
        "seed": seed,
        "noise": 0.02,
        "constants": {
            name: {
                "base": getattr(base, name),
                "fitted": getattr(fitted, name),
                "rel_error": abs(getattr(fitted, name) / getattr(base, name) - 1.0),
            }
            for name in ("p2p_alpha", "p2p_beta", "coll_alpha", "coll_beta")
        },
    }
    return {
        "seed": seed,
        "tolerances": dict(DRIFT_TOLERANCES),
        "templates": rows,
        "calibration": calibration,
        "violations": violations,
        "ok": not violations,
    }


def drift_report_json(report: dict) -> str:
    """The report as canonical JSON (sorted keys — byte-stable per seed)."""
    return json.dumps(report, indent=2, sort_keys=True)


def render_drift_report(report: dict) -> str:
    """ASCII tables of the report (one per template, plus calibration)."""
    from ..reporting import render_table

    sections = []
    for row in report["templates"]:
        rows = []
        for phase in DRIFT_PHASES:
            e = row["phases"][phase]
            rows.append(
                {
                    "phase": phase,
                    "analytic (s)": f"{e['analytic']:.6f}",
                    "batch drift": f"{e['analytic-batch_rel_drift']:.1e}",
                    "sim (s)": f"{e['sim']:.6f}",
                    "measured (s)": f"{e['measured']:.6f}",
                    "meas drift": f"{e['measured_rel_drift']:.3f}",
                    "tol": f"{e['tolerance']:.2f}",
                    "ok": "y" if e["within_tolerance"] else "N",
                }
            )
        title = (
            f"{row['figure']} · {row['model']} · {row['n_gpus']} GPUs · "
            f"{row['framework']} (drift vs analytic)"
        )
        sections.append(render_table(rows, title=title))
    cal_rows = [
        {
            "constant": name,
            "base": f"{entry['base']:.4g}",
            "fitted": f"{entry['fitted']:.4g}",
            "rel error": f"{entry['rel_error']:.4f}",
        }
        for name, entry in report["calibration"]["constants"].items()
    ]
    sections.append(
        render_table(
            cal_rows,
            title=(
                "fit_calibration recovery on synthetic samples "
                f"(seed={report['calibration']['seed']}, "
                f"noise={report['calibration']['noise']:g})"
            ),
        )
    )
    status = "OK" if report["ok"] else "DRIFT EXCEEDED:\n" + "\n".join(
        report["violations"]
    )
    return "\n\n".join(sections) + f"\n\n{status}\n"
