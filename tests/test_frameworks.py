"""Framework breakdowns: qualitative shape of Figs. 5-8 and Table II."""

import pytest

from repro.api import Job, Machine, Session
from repro.autotune import FRAMEWORKS, EvaluationCache
from repro.cluster import SUMMIT
from repro.models import (
    TABLE_I,
    get_spec,
    gpu_counts,
    narayanan_transformer_flops,
    percent_of_peak,
)
from repro.parallel import microbatches_per_gpu, transmission_time

GPT_MODELS = ("gpt3-xl", "gpt3-2.7b", "gpt3-6.7b", "gpt3-13b")


@pytest.fixture(scope="module")
def session():
    return Session(Machine(), cache=EvaluationCache())


class TestEquations:
    def test_transmission_eq9(self):
        # 4 * B/(mbs*G_data) * t_msg
        assert transmission_time(512, 64, 1, 0.01, g_inter=2) == pytest.approx(4 * 8 * 0.01)

    def test_transmission_zero_for_single_stage(self):
        assert transmission_time(512, 512, 1, 0.01, g_inter=1) == 0.0

    def test_transmission_g_inter_required(self):
        """Regression: the old optional ``g_inter=None`` silently charged
        single-stage pipelines the interior-GPU send cost."""
        with pytest.raises(TypeError):
            transmission_time(512, 64, 1, 0.01)

    def test_transmission_g_inter_validated(self):
        with pytest.raises(ValueError):
            transmission_time(512, 64, 1, 0.01, g_inter=0)

    def test_transmission_monotone_in_g_inter(self):
        """Eq. 11: fixing G, t_send grows with G_inter."""
        G, B = 256, 512
        times = [
            transmission_time(B, G // gi, 1, 0.01, g_inter=gi) for gi in (2, 4, 8)
        ]
        assert times == sorted(times) and times[0] < times[-1]

    def test_microbatch_divisibility_enforced(self):
        with pytest.raises(ValueError):
            microbatches_per_gpu(512, 100, 1)


class TestFrameworkOrdering:
    @pytest.mark.parametrize("name", GPT_MODELS)
    def test_samo_fastest_sputnik_slowest(self, name, session):
        """The consistent Fig. 6/7 ordering at every profiled GPU count."""
        for g in gpu_counts(TABLE_I[name]):
            r = {
                fw: session.breakdown(Job(model=name, n_gpus=g, framework=fw))
                for fw in FRAMEWORKS
            }
            assert r["axonn+samo"].total < r["axonn"].total, (name, g)
            assert r["axonn+samo"].total < r["deepspeed-3d"].total, (name, g)
            assert r["sputnik"].total > r["axonn"].total, (name, g)

    @pytest.mark.parametrize("name", GPT_MODELS)
    def test_speedup_grows_with_scale(self, name, session):
        """Paper: largest speedups at the largest GPU counts. GPT-3 13B is
        nearly flat in the paper too (19/19/22/26), so it only gets a
        no-collapse check."""
        counts = gpu_counts(TABLE_I[name])
        speeds = []
        for g in counts:
            a = session.breakdown(Job(model=name, n_gpus=g, framework="axonn"))
            s = session.breakdown(Job(model=name, n_gpus=g, framework="axonn+samo"))
            speeds.append(s.speedup_over(a))
        if name == "gpt3-13b":
            assert speeds[-1] > speeds[0] - 2.0
        else:
            assert speeds[-1] > speeds[0]

    def test_speedup_bands_match_paper(self, session):
        """Simulated speedups stay within a loose band of the annotations."""
        paper = {
            "gpt3-xl": (10, 47), "gpt3-2.7b": (10, 34),
            "gpt3-6.7b": (11, 23), "gpt3-13b": (19, 26),
        }
        for name, (lo, hi) in paper.items():
            for g in gpu_counts(TABLE_I[name]):
                job = Job(model=name, n_gpus=g)
                s = session.breakdown(job.with_(framework="axonn+samo")).speedup_over(
                    session.breakdown(job)
                )
                assert lo - 8 <= s <= hi + 10, (name, g, s)

    def test_sputnik_roughly_2x_samo(self, session):
        """'AxoNN+SAMO ends up being nearly twice as fast as Sputnik'."""
        for name in GPT_MODELS:
            job = Job(model=name, n_gpus=gpu_counts(TABLE_I[name])[1])
            ratio = (
                session.breakdown(job.with_(framework="sputnik")).total
                / session.breakdown(job.with_(framework="axonn+samo")).total
            )
            assert 1.4 < ratio < 2.6, (name, ratio)

    def test_scaling_times_decrease(self, session):
        for fw in FRAMEWORKS:
            totals = [
                session.breakdown(Job(model="gpt3-2.7b", n_gpus=g, framework=fw)).total
                for g in gpu_counts(TABLE_I["gpt3-2.7b"])
            ]
            assert totals == sorted(totals, reverse=True), fw


class TestCNNBehaviour:
    @pytest.mark.parametrize("name, g", [("vgg19", 16), ("wideresnet-101", 32)])
    def test_samo_plan_cell_prices_the_breakdown(self, name, g):
        """One SAMO rule for CNNs: the plan's pure data-parallel cell pays
        the gradient-compression overhead the breakdown does. Its memory
        differs: CNN plan candidates run without checkpointing."""
        job = Job(model=name, n_gpus=g, framework="axonn+samo")
        plan = Session(Machine(), cache=EvaluationCache()).plan(
            job, frameworks=("axonn+samo",)
        )
        (cell,) = [e.breakdown for e in plan.evaluations if e.config.mbs == 1]
        b = Session(Machine(), cache=EvaluationCache()).breakdown(job)
        for phase in ("compute", "p2p", "bubble", "collective", "other", "total"):
            assert getattr(cell, phase) == getattr(b, phase), phase

    def test_pure_data_parallel(self, session):
        for name in ("vgg19", "wideresnet-101"):
            b = session.breakdown(Job(model=name, n_gpus=32))
            assert b.config.g_inter == 1 and b.p2p == 0.0 and b.bubble == 0.0

    def test_deepspeed_equals_axonn_for_cnns(self, session):
        """Paper Fig. 5: both use the same NCCL data parallelism."""
        for name in ("vgg19", "wideresnet-101"):
            a = session.breakdown(Job(model=name, n_gpus=64, framework="axonn"))
            d = session.breakdown(Job(model=name, n_gpus=64, framework="deepspeed-3d"))
            assert a.total == pytest.approx(d.total, rel=1e-6)

    def test_sputnik_rejects_convolutions(self, session):
        with pytest.raises(ValueError):
            session.breakdown(Job(model="vgg19", n_gpus=16, framework="sputnik"))

    def test_vgg_benefits_more_than_wrn(self, session):
        """Paper: VGG speedups (18-44%) > WRN (7-15%), because WRN spends
        proportionally more time in compute."""
        for g in (64, 128):
            sv, sw = (
                session.breakdown(Job(model=name, n_gpus=g, framework="axonn+samo"))
                .speedup_over(session.breakdown(Job(model=name, n_gpus=g)))
                for name in ("vgg19", "wideresnet-101")
            )
            assert sv > sw

    def test_cnn_speedup_bands(self, session):
        vgg, wrn = (
            [
                session.breakdown(Job(model=name, n_gpus=g, framework="axonn+samo"))
                .speedup_over(session.breakdown(Job(model=name, n_gpus=g)))
                for g in (16, 32, 64, 128)
            ]
            for name in ("vgg19", "wideresnet-101")
        )
        assert 5 <= min(vgg) and max(vgg) <= 55
        assert 3 <= min(wrn) and max(wrn) <= 20

    def test_batch_divisibility_enforced(self, session):
        with pytest.raises(ValueError):
            session.breakdown(Job(model="vgg19", n_gpus=48, framework="axonn"))  # 128 % 48 != 0


class TestBreakdown:
    def test_fig8_phase_shift(self, session):
        """p2p savings dominate at 128 GPUs; bubble+collective by 512."""
        spec = get_spec("gpt3-2.7b")
        saves = {}
        for g in (128, 512):
            a = session.breakdown(Job(model=spec.name, n_gpus=g))
            s = session.breakdown(Job(model=spec.name, n_gpus=g, framework="axonn+samo"))
            saves[g] = {
                "p2p": (a.p2p - s.p2p) / a.total,
                "rest": (a.bubble - s.bubble + a.collective - s.collective) / a.total,
            }
        assert saves[128]["p2p"] > saves[128]["rest"]
        assert saves[512]["rest"] > saves[512]["p2p"]

    def test_total_is_sum_of_phases(self, session):
        b = session.breakdown(Job(model="gpt3-xl", n_gpus=128, framework="axonn"))
        assert b.total == pytest.approx(b.compute + b.p2p + b.bubble + b.collective + b.other)

    def test_communication_property(self, session):
        b = session.breakdown(Job(model="gpt3-xl", n_gpus=128, framework="axonn"))
        assert b.communication == pytest.approx(b.p2p + b.bubble + b.collective)

    def test_samo_total_comm_reduction_band(self, session):
        """Paper: total communication reduction is ~33-40% of AxoNN's
        batch time for 2.7B at 128-512 GPUs."""
        spec = get_spec("gpt3-2.7b")
        for g in (128, 256, 512):
            a = session.breakdown(Job(model=spec.name, n_gpus=g))
            s = session.breakdown(Job(model=spec.name, n_gpus=g, framework="axonn+samo"))
            red = (a.communication - s.communication) / a.total
            assert 0.15 < red < 0.45, (g, red)

    def test_compress_overhead_band(self, session):
        """SAMO overhead is ~5-13% of AxoNN's batch time (paper: 8-12%)."""
        spec = get_spec("gpt3-2.7b")
        for g in (128, 256, 512):
            a = session.breakdown(Job(model=spec.name, n_gpus=g))
            s = session.breakdown(Job(model=spec.name, n_gpus=g, framework="axonn+samo"))
            frac = s.notes["overhead"] / a.total
            assert 0.04 < frac < 0.14, (g, frac)

    def test_as_row_keys(self, session):
        row = session.breakdown(Job(model="gpt3-xl", n_gpus=64, framework="axonn")).as_row()
        assert {"framework", "gpus", "total_s", "G_inter"} <= set(row)

    def test_unknown_framework(self):
        with pytest.raises(ValueError, match="unknown framework"):
            Job(model="gpt3-xl", n_gpus=64, framework="megatron")


class TestTableII:
    def test_throughput_ordering_and_band(self, session):
        """Table II: SAMO > AxoNN ~ DeepSpeed > Sputnik; AxoNN ~20-45%,
        SAMO ~30-55%, declining with scale."""
        flops = narayanan_transformer_flops(2048, 2048, 40, 5120, 50257)
        prev_samo = 100.0
        for g in (256, 512, 1024, 2048):
            job = Job(model="gpt3-13b", n_gpus=g)
            pct = {
                fw: percent_of_peak(flops, session.breakdown(job.with_(framework=fw)).total, g)
                for fw in FRAMEWORKS
            }
            assert pct["axonn+samo"] > pct["axonn"]
            assert pct["axonn+samo"] > pct["deepspeed-3d"]
            assert pct["sputnik"] < pct["axonn"]
            assert pct["axonn+samo"] < prev_samo  # utilisation declines
            prev_samo = pct["axonn+samo"]
            assert 10 < pct["axonn"] < 50
            assert 15 < pct["axonn+samo"] < 60

    def test_memory_claim_reproduction(self):
        """Sec I: 2.7B total memory ~80 GB dense -> ~20 GB with SAMO (-74%).

        Total = model state + per-GPU framework overhead x G_inter."""
        from repro.parallel import StorageMode, choose_g_inter, model_state_bytes

        spec = get_spec("gpt3-2.7b")
        gi_dense = choose_g_inter(spec, 128, StorageMode.DENSE)
        gi_samo = choose_g_inter(spec, 128, StorageMode.SAMO, 0.9)
        dense_total = model_state_bytes(spec, StorageMode.DENSE) + SUMMIT.framework_overhead_bytes * gi_dense
        samo_total = model_state_bytes(spec, StorageMode.SAMO, 0.9) + SUMMIT.framework_overhead_bytes * gi_samo
        reduction = 100 * (dense_total - samo_total) / dense_total
        assert 70 < reduction < 80  # paper: 74%
        assert dense_total / 1e9 == pytest.approx(80.16, rel=0.2)
        assert samo_total / 1e9 == pytest.approx(20.28, rel=0.25)
