"""Every Figure-8 breakdown in ``tests/golden/breakdowns.json`` again.

The corpus (``tests/golden/make_breakdowns.py``) was written by the
batch-time engine that priced ``analytic`` and ``sim`` breakdowns before
they became one cell of the estimators. Each question is asked again
through :meth:`Session.breakdown` and compared with ``==`` on every
phase, the total, memory and the parallel config. The notes keep the
estimator's layout: the engine's ``pipeline_fidelity`` is the
estimator's ``fidelity`` label and GPT notes carry ``g_tensor``; a CNN
cell's notes are its mode and label.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import Job, Machine, Session
from repro.autotune import EvaluationCache, make_estimator
from repro.models import get_spec
from repro.parallel import resolve_fidelity

GOLDEN = json.loads((Path(__file__).parent / "golden" / "breakdowns.json").read_text())


def _label(job: Job, scenario) -> str:
    fidelity, scenario = resolve_fidelity(
        job.fidelity, scenario, overlap=job.overlap, placement=job.placement
    )
    return make_estimator(
        fidelity, get_spec(job.model), scenario=scenario,
        partition_mode=job.partition_mode, overlap=job.overlap, placement=job.placement,
    ).fidelity


def _expected_notes(notes: dict, label: str, family: str) -> dict:
    if "pipeline_fidelity" not in notes:
        return notes
    if family == "cnn":
        return {"mode": notes["mode"], "fidelity": label}
    out = {k: v for k, v in notes.items() if k != "pipeline_fidelity"}
    out.update(g_tensor=1, fidelity=label)
    return out


@pytest.fixture(scope="module")
def session():
    return Session(Machine.summit(), cache=EvaluationCache())


@pytest.mark.parametrize(
    "record", GOLDEN,
    ids=[f"{i}-{r['job']['model']}@{r['job']['n_gpus']}-{r['job']['framework']}"
         f"-{r['job']['fidelity']}-{r['scenario']}" for i, r in enumerate(GOLDEN)],
)
def test_breakdown_matches_golden(session, record):
    job = Job.from_dict(record["job"])
    scenario = record["scenario"]
    if "error" in record:
        with pytest.raises(ValueError) as err:
            session.breakdown(job, scenario=scenario)
        assert str(err.value) == record["error"]
        return
    got = session.breakdown(job, scenario=scenario).to_dict()
    want = dict(record["breakdown"])
    want["notes"] = _expected_notes(
        want["notes"], _label(job, scenario), get_spec(job.model).family
    )
    assert got == want


def test_corpus_covers_every_knob():
    jobs = [r["job"] for r in GOLDEN]
    assert {j["fidelity"] for j in jobs} >= {"analytic", "analytic-batch", "sim", "measured"}
    assert {j["framework"] for j in jobs} == {"axonn", "axonn+samo", "deepspeed-3d", "sputnik"}
    assert {j["model"] for j in jobs} == {
        "gpt3-xl", "gpt3-2.7b", "gpt3-6.7b", "gpt3-13b", "vgg19", "wideresnet-101",
    }
    assert any(j["overlap"] for j in jobs) and any(j["placement"] == "best" for j in jobs)
    assert any(j["partition_mode"] == "time" for j in jobs)
    assert any("error" in r for r in GOLDEN)
