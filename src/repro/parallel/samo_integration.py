"""AxoNN+SAMO's functional data-parallel trainer.

:class:`DataParallelSAMOTrainer` is a multi-rank data-parallel trainer
over the in-process communicator: every rank holds a replica, computes
on its batch shard, all-reduces the **compressed** fp16 gradients
(Section IV-A), and runs the SAMO optimizer step. This is the executable
proof that sparse all-reduce + compressed state training is exactly
equivalent to dense training of the masked network. The performance
side (Figs. 5-8, Table II) is :meth:`repro.api.Session.breakdown` with
``framework="axonn+samo"``.
"""

from __future__ import annotations

import numpy as np

from ..comm.backend import Communicator
from ..core.config import SAMOConfig
from ..core.samo_optimizer import SAMOOptimizer
from ..pruning.masks import MaskSet
from ..tensor.module import Module

__all__ = ["DataParallelSAMOTrainer"]


class DataParallelSAMOTrainer:
    """Rank-local SAMO training with sparse gradient all-reduce.

    One instance runs inside each rank's thread. ``train_step`` performs:
    forward/backward on the local shard -> compress gradients ->
    all-reduce the compressed fp16 buffers -> average -> SAMO step.
    """

    def __init__(
        self,
        comm: Communicator,
        model: Module,
        mask: MaskSet,
        config: SAMOConfig | None = None,
    ):
        self.comm = comm
        self.model = model
        self.optimizer = SAMOOptimizer(model, mask, config)
        self.bytes_communicated = 0

    def train_step(self, loss_fn, *batch) -> float:
        """One data-parallel SAMO step; returns the local loss value."""
        self.optimizer.zero_grad()
        loss = loss_fn(self.model, *batch)
        loss.backward()
        self.optimizer.compress_gradients()
        # Sparse all-reduce: only the compressed values travel. fp16
        # buffers are summed in fp32 for associativity, then written back.
        for _, g in self.optimizer.compressed_gradient_views():
            g32 = g.astype(np.float32)
            total = self.comm.allreduce(g32)
            g[...] = (total / self.comm.size).astype(g.dtype)
            self.bytes_communicated += g.nbytes
        self.optimizer.step()
        return loss.item()
