"""Cross-fidelity consistency matrix and measured-fidelity determinism.

One table, every backend: the pairwise relationships between
``analytic``, ``analytic-batch``, ``sim`` and ``measured`` that were
previously pinned piecemeal across ``test_simulator_consistency.py``,
``test_batch_eval.py`` and ``test_api_golden.py`` (those goldens stay —
this file is the consolidated matrix, run over the same small Fig. 6-8
style templates the drift report prices at scale):

* ``analytic-batch`` is the same equations vectorized — every phase must
  match the scalar path **exactly** (``==``, not approx);
* ``sim`` shares the device model (compute/collective/other/memory
  bit-comparable) but folds exposed messaging into the pipeline
  timeline: its ``p2p`` phase is 0 and its ``bubble`` absorbs it;
* ``measured`` executes the proxy schedule and replays the event ledger
  at model-scale costs: compute matches to round-off, the structural
  phases stay inside :data:`repro.autotune.DRIFT_TOLERANCES`.

Plus the closed-loop determinism contracts: same seed ⇒ identical
calibration fit, identical measured breakdowns, byte-identical drift
report JSON.
"""

import json

import pytest

from repro.api import Job, Machine, Session
from repro.autotune import available_fidelities, candidate_for_workload, make_estimator
from repro.autotune.drift import (
    DRIFT_PHASES,
    DRIFT_TOLERANCES,
    FIG_TEMPLATES,
    drift_report,
    drift_report_json,
)
from repro.autotune.measured import measure_comm_samples
from repro.cluster import SUMMIT, fit_calibration, synthetic_comm_samples
from repro.models import get_spec

# small-GPU analogues of the Fig. 6-8 templates: same frameworks and
# model families, cut down so the executed proxy stays tier-1 fast
TEMPLATES = [
    ("gpt3-xl", 16, "axonn"),
    ("gpt3-xl", 16, "axonn+samo"),
    ("gpt3-2.7b", 64, "axonn"),
    ("gpt3-2.7b", 64, "deepspeed-3d"),
    ("wideresnet-101", 16, "axonn"),
]

FIDELITIES = ("analytic", "analytic-batch", "sim", "measured")


@pytest.fixture(scope="module")
def matrix():
    """Evaluations of every template under every fidelity."""
    out = {}
    for model, n_gpus, framework in TEMPLATES:
        spec = get_spec(model)
        config = candidate_for_workload(spec, framework, n_gpus)
        out[(model, n_gpus, framework)] = {
            "analytic": make_estimator("analytic", spec, SUMMIT).evaluate(config),
            "analytic-batch": (
                make_estimator("analytic-batch", spec, SUMMIT)
                .evaluate_batch([config])
                .evaluation(0, 0)
            ),
            "sim": make_estimator("sim", spec, SUMMIT).evaluate(config),
            "measured": make_estimator("measured", spec, SUMMIT).evaluate(config),
        }
    return out


def _drift(value, reference):
    if value == reference:
        return 0.0
    return abs(value - reference) / max(abs(reference), 1e-300)


class TestCrossFidelityMatrix:
    @pytest.mark.parametrize("key", TEMPLATES, ids=lambda k: f"{k[0]}@{k[1]}-{k[2]}")
    def test_batch_path_is_exact(self, matrix, key):
        a, b = matrix[key]["analytic"], matrix[key]["analytic-batch"]
        for phase in DRIFT_PHASES:
            assert getattr(b.breakdown, phase) == getattr(a.breakdown, phase), phase
        assert b.breakdown.memory_per_gpu == a.breakdown.memory_per_gpu

    @pytest.mark.parametrize("key", TEMPLATES, ids=lambda k: f"{k[0]}@{k[1]}-{k[2]}")
    def test_sim_shares_device_model(self, matrix, key):
        """The event engine re-times the pipeline but prices compute,
        collectives and 'other' off the same closed forms."""
        a, s = matrix[key]["analytic"], matrix[key]["sim"]
        for phase in ("compute", "collective", "other"):
            assert getattr(s.breakdown, phase) == pytest.approx(
                getattr(a.breakdown, phase), rel=1e-9
            ), phase
        assert s.breakdown.memory_per_gpu == a.breakdown.memory_per_gpu

    @pytest.mark.parametrize("key", TEMPLATES, ids=lambda k: f"{k[0]}@{k[1]}-{k[2]}")
    def test_sim_folds_p2p_into_timeline(self, matrix, key):
        """sim reports no separate p2p phase; with a real pipeline the
        exposed messaging reappears inside its bubble."""
        a, s = matrix[key]["analytic"], matrix[key]["sim"]
        assert s.breakdown.p2p == 0.0
        if a.breakdown.p2p > 0:
            assert s.breakdown.bubble > a.breakdown.bubble

    @pytest.mark.parametrize("key", TEMPLATES, ids=lambda k: f"{k[0]}@{k[1]}-{k[2]}")
    def test_measured_within_tolerances(self, matrix, key):
        a, m = matrix[key]["analytic"], matrix[key]["measured"]
        for phase in DRIFT_PHASES:
            drift = _drift(getattr(m.breakdown, phase), getattr(a.breakdown, phase))
            assert drift <= DRIFT_TOLERANCES[phase], (phase, drift)
        # memory is priced by the shared model, not executed: identical
        assert m.breakdown.memory_per_gpu == a.breakdown.memory_per_gpu

    @pytest.mark.parametrize("key", TEMPLATES, ids=lambda k: f"{k[0]}@{k[1]}-{k[2]}")
    def test_measured_compute_is_exact(self, matrix, key):
        a, m = matrix[key]["analytic"], matrix[key]["measured"]
        assert m.breakdown.compute == pytest.approx(a.breakdown.compute, rel=1e-9)
        assert m.breakdown.other == pytest.approx(a.breakdown.other, rel=1e-9)

    def test_sparse_cnn_bucket_latency_caveat(self):
        """Known structural outlier, pinned on purpose: a SAMO CNN's
        all-reduce payload is ~10% of dense, so the executed 4-bucket
        collective's extra per-bucket ring latency is *relatively* huge
        on that one phase — while staying a few ms in absolute terms.
        The excess is bounded by the extra buckets' latency terms (after
        overlap hiding) and the total still lands inside its floor."""
        spec = get_spec("wideresnet-101")
        config = candidate_for_workload(spec, "axonn+samo", 16)
        a = make_estimator("analytic", spec, SUMMIT).evaluate(config)
        m = make_estimator("measured", spec, SUMMIT).evaluate(config)
        excess = m.breakdown.collective - a.breakdown.collective
        g = config.g_data
        per_bucket_alpha = 2 * (g - 1) * SUMMIT.coll_alpha
        assert 0 < excess <= 3 * per_bucket_alpha  # <= (n_buckets-1) rings' latency
        total_drift = _drift(m.breakdown.total, a.breakdown.total)
        assert total_drift <= DRIFT_TOLERANCES["total"]


class TestMeasuredDeterminism:
    def test_same_seed_identical_breakdowns(self):
        spec = get_spec("gpt3-xl")
        config = candidate_for_workload(spec, "axonn", 64)
        runs = [
            make_estimator("measured", spec, SUMMIT, seed=3).evaluate(config)
            for _ in range(2)
        ]
        assert runs[0].breakdown.to_dict() == runs[1].breakdown.to_dict()

    def test_same_seed_identical_calibration_fit(self):
        fits = [
            fit_calibration(synthetic_comm_samples(SUMMIT, seed=11))
            for _ in range(2)
        ]
        assert fits[0] == fits[1]

    def test_drift_report_json_byte_identical(self):
        docs = [
            drift_report_json(drift_report(seed=0, quick=True)) for _ in range(2)
        ]
        assert docs[0] == docs[1]
        parsed = json.loads(docs[0])
        assert parsed["ok"] is True
        assert parsed["templates"][0]["figure"] == FIG_TEMPLATES[0][0]

    def test_quick_report_is_prefix_of_full_set(self):
        doc = drift_report(seed=0, quick=True)
        assert len(doc["templates"]) == 1
        assert doc["tolerances"] == DRIFT_TOLERANCES

    def test_calibration_fit_recovers_ground_truth(self):
        doc = drift_report(seed=0, quick=True)
        for name, entry in doc["calibration"]["constants"].items():
            assert entry["rel_error"] < 0.05, (name, entry)


class TestRegistryAndDispatch:
    def test_measured_is_registered(self):
        assert "measured" in available_fidelities()

    def test_seed_tags_the_fidelity_label(self):
        spec = get_spec("gpt3-xl")
        assert make_estimator("measured", spec, SUMMIT).fidelity == "measured"
        assert (
            make_estimator("measured", spec, SUMMIT, seed=3).fidelity
            == "measured[s3]"
        )

    def test_engine_only_knobs_rejected(self):
        from repro.parallel.scenarios import SCENARIOS

        spec = get_spec("gpt3-xl")
        with pytest.raises(ValueError, match="sim"):
            make_estimator("measured", spec, SUMMIT, scenario=SCENARIOS["straggler"])
        with pytest.raises(ValueError, match="sim"):
            make_estimator("measured", spec, SUMMIT, partition_mode="time")
        with pytest.raises(ValueError, match="sim"):
            make_estimator("measured", spec, SUMMIT, overlap=True)
        with pytest.raises(ValueError, match="sim"):
            make_estimator("measured", spec, SUMMIT, placement="best")

    def test_session_breakdown_dispatches_measured(self):
        session = Session(Machine.summit())
        job = Job(model="gpt3-xl", n_gpus=16, framework="axonn+samo")
        measured = session.breakdown(Job(**{**job.to_dict(), "fidelity": "measured"}))
        analytic = session.breakdown(job)
        assert measured.notes["fidelity"] == "measured"
        assert measured.total > 0
        # compute is shared; totals differ only by the structural phases
        assert measured.compute == pytest.approx(analytic.compute, rel=1e-9)
        assert _drift(measured.total, analytic.total) <= DRIFT_TOLERANCES["total"]

    def test_server_dispatches_measured(self):
        from repro.serve import PlanningServer, decode_response

        server = PlanningServer(machine=Machine.summit())
        resp = decode_response(server.handle(
            {
                "jsonrpc": "2.0",
                "id": 1,
                "method": "breakdown",
                "params": {
                    "job": {
                        "model": "gpt3-xl",
                        "n_gpus": 16,
                        "framework": "axonn+samo",
                        "fidelity": "measured",
                    }
                },
            }
        ))
        assert "error" not in resp, resp
        assert resp["result"]["notes"]["fidelity"] == "measured"
        assert resp["result"]["total"] > 0


class TestMeasuredCommChannel:
    def test_measure_comm_samples_feed_the_fit(self):
        """The wall-clock channel: real in-process timings are valid
        CommSamples, and the fit either recovers positive constants or
        rejects the (host-noise-distorted) timings loudly — it must
        never silently return an unusable calibration."""
        samples = measure_comm_samples(sizes=(64 * 1024, 1024 * 1024), repeats=2)
        assert {s.channel for s in samples} == {"p2p", "collective"}
        assert all(s.seconds > 0 for s in samples)
        try:
            fitted = fit_calibration(samples)
        except ValueError as err:
            # a loaded host can time a bigger message faster; the fit's
            # job is then to refuse, not to extrapolate nonsense
            assert "non-physical" in str(err)
        else:
            assert fitted.p2p_alpha > 0 and fitted.p2p_beta > 0
            assert fitted.coll_alpha > 0 and fitted.coll_beta > 0
