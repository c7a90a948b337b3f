"""Edge cases and cross-module behaviours not covered elsewhere."""

import numpy as np
import pytest

from repro.cluster import SUMMIT, EventLoop
from repro.cluster.calibration import SummitCalibration
from repro.api import Job, Machine, Session
from repro.autotune import EvaluationCache
from repro.models import GPT_CONFIGS, GPTConfig
from repro.parallel import BatchBreakdown, ParallelConfig
from repro.tensor import Tensor, functional as F


class TestCalibration:
    def test_frozen_dataclass(self):
        with pytest.raises(Exception):
            SUMMIT.p2p_beta = 1.0  # type: ignore[misc]

    def test_paper_constants_present(self):
        """The Section V machine description is encoded verbatim."""
        assert SUMMIT.gpus_per_node == 6
        assert SUMMIT.gpu_memory_bytes == 16 * 1024**3
        assert SUMMIT.peak_fp16_flops == 125e12
        assert SUMMIT.nvlink_bw == 50e9
        assert SUMMIT.ib_bw == 12.5e9

    def test_custom_calibration_changes_results(self):
        import dataclasses

        slow = dataclasses.replace(SummitCalibration(), coll_beta=1e9)
        job = Job(model="gpt3-xl", n_gpus=128)
        a = Session(Machine(), cache=EvaluationCache()).breakdown(job)
        b = Session(Machine(cal=slow), cache=EvaluationCache()).breakdown(job)
        assert b.collective > a.collective


class TestGPTConfig:
    def test_derived_dims(self):
        cfg = GPT_CONFIGS["gpt3-2.7b"]
        assert cfg.d_head == 80 and cfg.d_ff == 4 * 2560

    def test_custom_config(self):
        cfg = GPTConfig("custom", n_layers=2, d_model=32, n_heads=4, vocab_size=64, seq_len=16)
        from repro.models import gpt_spec

        spec = gpt_spec(cfg)
        assert spec.num_layers == 2 + 3  # embedding + blocks + ln_f + head


class TestParallelConfig:
    def test_grid_consistency_enforced(self):
        with pytest.raises(ValueError):
            ParallelConfig(n_gpus=8, g_inter=4, g_data=3, mbs=1, microbatches=1)

    def test_breakdown_speedup_symmetry(self):
        cfg = ParallelConfig(8, 2, 4, 1, 16)
        a = BatchBreakdown("a", "m", cfg, 1.0, 0.0, 0.0, 0.0, 0.0)
        b = BatchBreakdown("b", "m", cfg, 2.0, 0.0, 0.0, 0.0, 0.0)
        assert a.speedup_over(b) == pytest.approx(100.0)
        assert b.speedup_over(a) == pytest.approx(-50.0)


class TestEventLoopAbsolute:
    def test_at_schedules_absolute_time(self):
        loop = EventLoop()
        seen = []
        loop.at(5.0, lambda: seen.append(loop.now))
        loop.run()
        assert seen == [5.0]

    def test_at_rejects_past(self):
        loop = EventLoop()
        loop.at(1.0, lambda: None)
        loop.run()
        with pytest.raises(ValueError):
            loop.at(0.5, lambda: None)


class TestTensorEdgeCases:
    def test_scalar_ops(self):
        t = Tensor(np.array(3.0), requires_grad=True)
        (t * t).backward()
        assert t.grad == pytest.approx(6.0)

    def test_rsub_rdiv(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        (10.0 - t).backward(np.ones(1))
        assert t.grad[0] == -1.0
        t2 = Tensor(np.array([2.0]), requires_grad=True)
        (10.0 / t2).backward(np.ones(1))
        assert t2.grad[0] == pytest.approx(-2.5)

    def test_comparison_returns_bool_array(self):
        t = Tensor(np.array([1.0, 3.0]))
        assert (t > 2.0).dtype == bool
        assert (t <= Tensor(np.array([1.0, 2.0]))).tolist() == [True, False]

    def test_pow_rejects_tensor_exponent(self):
        t = Tensor(np.ones(3))
        with pytest.raises(TypeError):
            t ** Tensor(np.ones(3))

    def test_len_and_item(self):
        t = Tensor(np.arange(4, dtype=np.float32))
        assert len(t) == 4
        assert Tensor(np.array(7.0)).item() == 7.0

    def test_repr(self):
        assert "requires_grad" in repr(Tensor(np.ones(2), requires_grad=True))

    def test_swapaxes(self):
        t = Tensor(np.zeros((2, 3, 4)), requires_grad=True)
        out = t.swapaxes(0, 2)
        assert out.shape == (4, 3, 2)
        out.sum().backward()
        assert t.grad.shape == (2, 3, 4)


class TestWhereMask:
    def test_forward_and_grads(self, rng):
        a = Tensor(rng.normal(size=(4,)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        mask = np.array([True, False, True, False])
        out = F.where_mask(mask, a, b)
        assert np.array_equal(out.data, np.where(mask, a.data, b.data))
        out.sum().backward()
        assert np.array_equal(a.grad, mask.astype(np.float32))
        assert np.array_equal(b.grad, (~mask).astype(np.float32))


class TestSimulateBatchNotes:
    def test_notes_and_memory_fields_populated(self):
        b = Session().breakdown(Job(model="gpt3-xl", n_gpus=128, framework="axonn+samo"))
        assert b.memory_per_gpu > 0
        assert "mode" in b.notes and b.notes["mode"] == "samo"
        assert b.notes["overhead"] > 0

    def test_mbs_scaling(self):
        """Larger microbatches -> fewer messages -> less p2p time."""
        job = Job(model="gpt3-2.7b", n_gpus=128)
        b1 = Session().breakdown(job.with_(mbs=1))
        b2 = Session().breakdown(job.with_(mbs=2))
        assert b2.p2p < b1.p2p

    def test_sparsity_affects_samo_memory(self):
        job = Job(model="gpt3-2.7b", n_gpus=128, framework="axonn+samo")
        lo = Session().breakdown(job.with_(sparsity=0.8))
        hi = Session().breakdown(job.with_(sparsity=0.95))
        assert hi.memory_per_gpu <= lo.memory_per_gpu
