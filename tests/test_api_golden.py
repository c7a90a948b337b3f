"""Golden numbers of the Figure-8 breakdown and the planner.

The literals below were produced by the original batch-time engine and
planner, before both became questions to :class:`repro.api.Session`:
every phase of the Figure-8 breakdown, the planner's winning config and
its exact batch time. All arithmetic is pure deterministic float math,
so equality is exact — any drift means a refactor changed semantics.
"""

import pytest

from repro.api import Job, Machine, Session
from repro.autotune import EvaluationCache


@pytest.fixture
def session():
    return Session(Machine(), cache=EvaluationCache())


# (framework -> (compute, p2p, bubble, collective, other, total, mem/GPU))
# breakdown of gpt3-2.7b on 128 GPUs at sparsity 0.9 @ commit 88bc684
GOLDEN_128 = {
    "axonn": (
        2.6046605470378665, 0.9075848533333334, 0.5697694946645333,
        0.3152289, 0.13023302735189332, 4.527476822387627, 12354112256,
    ),
    "axonn+samo": (
        3.1349712030378667, 0.22689621333333335, 0.3255825683797333,
        0.152202582, 0.13023302735189332, 3.9698855941028266, 11607887360,
    ),
    "deepspeed-3d": (
        2.6046605470378665, 1.1798603093333335, 0.5697694946645333,
        0.3152289, 0.13023302735189332, 4.799752278387627, 12354112256,
    ),
    "sputnik": (
        6.511651367594666, 0.0, 0.0,
        0.306821078, 0.3255825683797333, 7.1440550139744, 13258161152,
    ),
}


class TestLegacySimulateBatchGolden:
    @pytest.mark.parametrize("framework", sorted(GOLDEN_128))
    def test_breakdown_bit_identical(self, framework, session):
        b = session.breakdown(
            Job(model="gpt3-2.7b", n_gpus=128, framework=framework, sparsity=0.9)
        )
        compute, p2p, bubble, coll, other, total, mem = GOLDEN_128[framework]
        assert b.compute == compute
        assert b.p2p == p2p
        assert b.bubble == bubble
        assert b.collective == coll
        assert b.other == other
        assert b.total == total
        assert b.memory_per_gpu == mem

    def test_sim_fidelity_bit_identical(self, session):
        b = session.breakdown(Job(model="gpt3-2.7b", n_gpus=128, fidelity="sim"))
        assert b.total == 4.7049458990127

    def test_scenario_still_implies_sim_when_fidelity_unset(self, session):
        b = session.breakdown(Job(model="gpt3-2.7b", n_gpus=128), scenario="straggler")
        assert b.notes["fidelity"] == "sim@straggler"
        assert b.total == 4.264955131507627

    def test_cnn_pure_dp_bit_identical(self, session):
        b = session.breakdown(Job(model="vgg19", n_gpus=16, framework="axonn+samo"))
        assert b.total == 0.5415167429121711
        assert b.memory_per_gpu == 6024974384


class TestOverlapPlacementGolden:
    """The new fidelity knobs must leave the pinned numbers untouched
    when off, and strictly improve the right phase when on."""

    def test_overlap_off_is_byte_identical_to_pr4_goldens(self, session):
        """overlap=False / placement='block' spelled out explicitly must
        reproduce every pinned PR 4 number bit-for-bit."""
        for framework, golden in GOLDEN_128.items():
            b = session.breakdown(Job(
                model="gpt3-2.7b", n_gpus=128, framework=framework, sparsity=0.9,
                overlap=False, placement="block",
            ))
            assert b.total == golden[5], framework
        b = session.breakdown(Job(
            model="gpt3-2.7b", n_gpus=128, fidelity="sim",
            overlap=False, placement="block",
        ))
        assert b.total == 4.7049458990127

    def test_overlap_exposed_comm_golden(self, session):
        """Pinned overlap numbers under per-stage payloads.

        Stage 0 carries the embedding, so its gradient share is ~1.59x
        the uniform phi/G_inter shard and its ring overhangs the drain
        further than the uniform additive model charges: exposed may
        exceed ``additive`` (the accounting identity ``exposed + hidden
        == additive`` still holds, with ``hidden`` negative here —
        derivation in docs/cost_model.md)."""
        job = Job(model="gpt3-2.7b", n_gpus=128)
        add = session.breakdown(job, scenario="degraded-ring")
        ov = session.breakdown(job.with_(overlap=True), scenario="degraded-ring")
        assert add.collective == 0.6259577999999999
        assert ov.collective == 0.9319272578604592
        assert ov.collective_additive == add.collective
        assert ov.collective_hidden == add.collective - ov.collective

    def test_session_place_never_worse_golden(self, session):
        job = Job(model="gpt3-2.7b", n_gpus=16)
        res = session.place(job)
        assert res.makespan <= res.default_makespan
        assert res.default_makespan == 27.766624348680676


class TestLegacyPlannerGolden:
    def test_analytic_plan_bit_identical(self, session):
        res = session.plan(Job(model="gpt3-xl", n_gpus=64))
        assert res.best.config.canonical_key() == (
            "axonn+samo", 1, 1, 64, 4, False, "samo", 0.9
        )
        assert res.best.total_time == 2.3654800399331952
        assert res.best.memory_bytes == 16320832312
        assert len(res.evaluations) == 233
        assert len(res.feasible) == 233

    def test_sim_scenario_plan_bit_identical(self, session):
        res = session.plan(
            Job(model="gpt3-xl", n_gpus=32, fidelity="sim"),
            scenario="straggler", microbatch_sizes=(1,),
        )
        assert res.fidelity == "sim@straggler"
        assert res.best.config.canonical_key() == (
            "axonn", 1, 8, 4, 1, False, "dense", 0.0
        )
        assert res.best.total_time == 5.64271813216939
