"""Cross-validation: the batch-time model vs the event simulator vs the
paper's closed-form equations (Eqs. 6-11)."""

import numpy as np
import pytest

from repro.api import Job, Session
from repro.cluster import SUMMIT, DeviceModel, p2p_message_time, pipeline_message_bytes
from repro.models import get_spec
from repro.parallel import (
    bubble_time,
    microbatches_per_gpu,
    simulate_pipeline,
    transmission_time,
)


class TestModelVsEventSimulator:
    @pytest.mark.parametrize("g_inter,m", [(2, 8), (4, 8), (8, 16)])
    def test_bubble_agreement(self, g_inter, m):
        """The breakdown's Eq. 7 bubble equals the event simulator's idle time
        for the same stage times (free messages)."""
        t_f, t_b = 0.02, 0.06
        trace = simulate_pipeline(g_inter, m, t_f, t_b)
        eq7 = bubble_time(g_inter, t_f * g_inter, t_b * g_inter)
        assert trace.idle_time(0) == pytest.approx(eq7, rel=1e-9)

    def test_batch_p2p_equals_eq9(self):
        """The engine's p2p phase is exactly Eq. 9 with the α-β message
        cost (no hidden fudge factors for AxoNN)."""
        spec = get_spec("gpt3-2.7b")
        b = Session().breakdown(Job(model=spec.name, n_gpus=256, framework="axonn"))
        g_inter, g_data = b.config.g_inter, b.config.g_data
        msg_bytes = pipeline_message_bytes(1, 2048 * 2560)
        t_msg = p2p_message_time(msg_bytes)
        expected = transmission_time(spec.batch_size, g_data, 1, t_msg, g_inter)
        assert b.p2p == pytest.approx(expected, rel=1e-9)

    def test_batch_bubble_equals_eq7(self):
        spec = get_spec("gpt3-2.7b")
        b = Session().breakdown(Job(model=spec.name, n_gpus=256, framework="axonn"))
        device = DeviceModel(SUMMIT)
        t_f_model = device.time(spec.fwd_flops_per_sample())
        expected = bubble_time(b.config.g_inter, t_f_model, 3 * t_f_model)
        assert b.bubble == pytest.approx(expected, rel=1e-9)

    def test_compute_conserved_across_g_inter(self):
        """Total compute per GPU = batch flops / G regardless of the
        decomposition (before SAMO overhead)."""
        spec = get_spec("gpt3-6.7b")
        a = Session().breakdown(Job(model=spec.name, n_gpus=512, framework="axonn"))
        d = Session().breakdown(Job(model=spec.name, n_gpus=512, framework="deepspeed-3d"))
        assert a.compute == pytest.approx(d.compute, rel=1e-9)

    def test_deepspeed_penalty_is_p2p_only(self):
        spec = get_spec("gpt3-6.7b")
        a = Session().breakdown(Job(model=spec.name, n_gpus=512, framework="axonn"))
        d = Session().breakdown(Job(model=spec.name, n_gpus=512, framework="deepspeed-3d"))
        assert d.p2p == pytest.approx(a.p2p * SUMMIT.deepspeed_p2p_penalty, rel=1e-9)
        assert d.bubble == pytest.approx(a.bubble, rel=1e-9)
        assert d.collective == pytest.approx(a.collective, rel=1e-9)

    def test_sputnik_compute_scaled_by_slowdown(self):
        spec = get_spec("gpt3-2.7b")
        sam = Session().breakdown(Job(model=spec.name, n_gpus=512, framework="axonn+samo"))
        spu = Session().breakdown(Job(model=spec.name, n_gpus=512, framework="sputnik"))
        if spu.config.g_inter == sam.config.g_inter:
            base = sam.compute - sam.notes["overhead"]
            assert spu.compute == pytest.approx(base * SUMMIT.sputnik_compute_slowdown, rel=1e-6)


class TestPipelineWithMessages:
    def test_message_delay_bounded_by_serial_chain(self):
        """With messages, makespan <= free-message makespan + the longest
        dependency chain of message hops (sanity bound, no deadlock)."""
        g, m, tf, tb, msg = 4, 8, 1.0, 2.0, 0.25
        free = simulate_pipeline(g, m, tf, tb).makespan
        slow = simulate_pipeline(g, m, tf, tb, msg_time=msg).makespan
        worst = free + msg * 2 * (g - 1) * m  # every hop fully exposed
        assert free < slow <= worst

    def test_idle_exceeds_pure_bubble_with_messages(self):
        g, m = 3, 6
        free = simulate_pipeline(g, m, 1.0, 2.0)
        slow = simulate_pipeline(g, m, 1.0, 2.0, msg_time=0.5)
        assert slow.idle_time(0) > free.idle_time(0)

    def test_single_microbatch(self):
        tr = simulate_pipeline(4, 1, 1.0, 2.0)
        # serial chain: 4 fwd + 4 bwd
        assert tr.makespan == pytest.approx(12.0)


class TestMicrobatchAlgebra:
    def test_eq10_identity(self):
        """t_send ∝ 4 B G_inter / (mbs G): expressing Eq. 9 through Eq. 10
        gives the same number."""
        B, G, mbs, t_msg = 1024, 256, 2, 0.005
        for g_inter in (2, 4, 8):
            g_data = G // g_inter
            eq9 = transmission_time(B, g_data, mbs, t_msg, g_inter)
            eq10 = 4 * B * g_inter / (mbs * G) * t_msg
            assert eq9 == pytest.approx(eq10)

    def test_microbatches_per_gpu_counts(self):
        assert microbatches_per_gpu(512, 16, 1) == 32
        assert microbatches_per_gpu(512, 16, 2) == 16
