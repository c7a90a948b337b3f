"""Functional inter-layer (pipeline) parallel training over thread ranks.

The performance side of AxoNN's pipeline lives in
:mod:`repro.parallel.pipeline` (event simulation) and
:mod:`repro.autotune.estimator` (batch-time model). This module *executes* the
algorithm: each rank owns a contiguous stage of layers; activations flow
downstream with ``send``/``recv`` during the forward pass and activation
gradients flow upstream during the backward pass, microbatch by
microbatch, exactly as in the paper's Figure 3. Combined with
:class:`repro.comm.GridLayout` and the data-parallel sparse all-reduce it
forms a complete executable AxoNN+SAMO.

The stage boundary uses the autograd engine's ``backward(grad=...)``
entry point: the upstream gradient received from the next stage seeds the
local backward pass.
"""

from __future__ import annotations

import time

import numpy as np

from ..comm.backend import Communicator
from ..obs import OBS
from ..core.config import SAMOConfig
from ..core.samo_optimizer import SAMOOptimizer
from ..pruning.masks import MaskSet
from ..tensor.module import Module
from ..tensor.tensor import Tensor
from ..train.mixed_precision import DenseMixedPrecisionState

__all__ = [
    "PipelineStageTrainer",
    "StageModule",
    "partition_module_list",
    "BucketedGradSync",
]

TAG_ACT = 11
TAG_GRAD = 13


def partition_module_list(blocks: list[Module], n_stages: int) -> list[list[Module]]:
    """Split an ordered block list into ``n_stages`` contiguous stages of
    near-equal length (the runnable analogue of the flops partitioner)."""
    if n_stages < 1 or n_stages > len(blocks):
        raise ValueError(f"n_stages={n_stages} out of range for {len(blocks)} blocks")
    bounds = [round(i * len(blocks) / n_stages) for i in range(n_stages + 1)]
    return [blocks[bounds[i] : bounds[i + 1]] for i in range(n_stages)]


class StageModule(Module):
    """A pipeline stage: an ordered chain of blocks owned by one rank.

    Parameter names are ``b{i}.<name>``; compute pruning masks against an
    instance of this class so index names line up with the trainer's.

    ``checkpoint_segments > 0`` runs the chain through
    :func:`repro.tensor.checkpoint.checkpoint_sequential` — AxoNN trains
    with activation checkpointing on (paper Section II-E), and this is
    the executable composition of the two memory levers: SAMO compresses
    the model state while checkpointing bounds the activations each
    in-flight microbatch pins.
    """

    def __init__(self, blocks: list[Module], checkpoint_segments: int = 0):
        super().__init__()
        self._chain = []
        for i, b in enumerate(blocks):
            setattr(self, f"b{i}", b)
            self._chain.append(b)
        if checkpoint_segments < 0 or checkpoint_segments > max(len(blocks), 1):
            raise ValueError(
                f"checkpoint_segments={checkpoint_segments} out of range "
                f"[0, {len(blocks)}]"
            )
        self.checkpoint_segments = checkpoint_segments

    def forward(self, x: Tensor) -> Tensor:
        if self.checkpoint_segments:
            from ..tensor.checkpoint import checkpoint_sequential

            return checkpoint_sequential(self._chain, x, self.checkpoint_segments)
        for b in self._chain:
            x = b(x)
        return x


class BucketedGradSync:
    """Data-parallel gradient all-reduce in size-balanced buckets.

    The executable counterpart of the overlap cost model
    (:func:`repro.parallel.scenarios.overlap_exposed_collective`): instead
    of one monolithic all-reduce after the flush, the stage's gradient
    buffers are grouped into ``n_buckets`` roughly equal-byte buckets and
    each bucket is reduced as one concatenated message — the granularity
    that lets a real transport put bucket ``k`` on the wire while the
    backward pass still produces bucket ``k+1``. Summation happens in
    fp32 (matching the hand-written hooks in the examples, so results are
    bitwise-compatible with the per-tensor sync), then written back into
    the fp16 buffers in place.

    Works as the ``grad_sync`` hook of :class:`PipelineStageTrainer` for
    both state flavours: SAMO's compressed state (``state.compressed`` /
    ``state.dense`` entries) and the dense mixed-precision state
    (``state.grad16`` buffers).
    """

    def __init__(self, comm: Communicator, n_buckets: int = 4, average: bool = True):
        if n_buckets < 1:
            raise ValueError(f"n_buckets must be >= 1, got {n_buckets}")
        self.comm = comm
        self.n_buckets = n_buckets
        self.average = average
        self.bytes_communicated = 0
        self.buckets_sent = 0
        #: per-bucket fp16 payload sizes, in reduction order — the
        #: measured fidelity prices each bucket's ring from these
        self.bucket_bytes: list[int] = []
        #: wall seconds spent inside all-reduce calls (includes the
        #: rendezvous wait of the bulk-synchronous backend)
        self.seconds = 0.0

    @staticmethod
    def _gradient_views(state) -> list[np.ndarray]:
        """The state's live fp16 gradient buffers, in production order."""
        views: list[np.ndarray] = []
        if hasattr(state, "compressed"):  # SAMO training state
            for e in state.compressed:
                if e.grad16_c is not None:
                    views.append(e.grad16_c)
            for d in state.dense:
                if d.grad16 is not None:
                    views.append(d.grad16)
        elif hasattr(state, "grad16"):  # dense mixed-precision state
            views.extend(g for g in state.grad16 if g is not None)
        else:
            raise TypeError(
                f"unsupported training state {type(state).__name__}; expected "
                "SAMO compressed state or DenseMixedPrecisionState"
            )
        return views

    def _buckets(self, views: list[np.ndarray]) -> list[list[np.ndarray]]:
        """Greedy contiguous split into <= n_buckets near-equal-byte runs."""
        total = sum(v.nbytes for v in views)
        target = max(total / self.n_buckets, 1)
        buckets: list[list[np.ndarray]] = [[]]
        filled = 0
        for v in views:
            if filled >= target and len(buckets) < self.n_buckets:
                buckets.append([])
                filled = 0
            buckets[-1].append(v)
            filled += v.nbytes
        return [b for b in buckets if b]

    def __call__(self, state) -> None:
        views = self._gradient_views(state)
        if not views:
            return
        for bucket in self._buckets(views):
            flat = np.concatenate([v.astype(np.float32).ravel() for v in bucket])
            nbytes = sum(v.nbytes for v in bucket)
            t0 = time.perf_counter()
            if OBS.enabled:
                with OBS.tracer.span(
                    "allreduce", category="exec.collective",
                    track=f"rank{self.comm.rank}", nbytes=nbytes,
                ):
                    total = self.comm.allreduce(flat)
            else:
                total = self.comm.allreduce(flat)
            self.seconds += time.perf_counter() - t0
            if self.average:
                total = total / self.comm.size
            offset = 0
            for v in bucket:
                v[...] = total[offset : offset + v.size].reshape(v.shape).astype(v.dtype)
                offset += v.size
            self.bytes_communicated += nbytes
            self.bucket_bytes.append(nbytes)
            self.buckets_sent += 1


class PipelineStageTrainer:
    """One rank of an inter-layer parallel training run.

    Parameters
    ----------
    comm:
        Communicator over the pipeline group. Stage index == ``comm.rank``
        (use a dedicated sub-world per pipeline).
    blocks:
        The contiguous blocks this stage owns.
    head / loss_head:
        Only consulted on the first/last stage: ``head(batch_input)``
        produces the stage-0 input tensor (e.g. embedding lookup);
        ``loss_head(stage_output, targets)`` produces the scalar loss.
        Both may be ``None`` when the stage's blocks already include them.
    mask / samo_sparsity / config:
        With an explicit ``mask`` (named against :class:`StageModule`) or
        a ``samo_sparsity`` (stage-local magnitude pruning at that level),
        the stage trains through :class:`SAMOOptimizer` (compressed
        state); otherwise through the dense mixed-precision state.
    checkpoint_segments:
        When > 0, run the stage's blocks under activation checkpointing
        with that many segments (see :class:`StageModule`).
    record_events:
        When True, every compute step and message this rank executes is
        appended to ``self.events`` in program order —
        ``("fwd",)``/``("bwd",)`` for microbatch compute and
        ``("send", peer, tag, nbytes)``/``("recv", peer, tag, nbytes)``
        for boundary messages. The measured fidelity replays this ledger
        under model-scale per-op costs
        (:func:`repro.autotune.measured.replay_events`).

    Per-phase wall clock accumulates in ``self.phase_seconds``
    (``forward``/``backward``/``p2p``), and each phase also emits a
    wall-clock span (categories ``exec.forward``, ``exec.backward``,
    ``exec.p2p``) when the process-wide tracer is enabled.
    """

    def __init__(
        self,
        comm: Communicator,
        blocks: list[Module],
        head=None,
        loss_head=None,
        mask: MaskSet | None = None,
        samo_sparsity: float | None = None,
        config: SAMOConfig | None = None,
        checkpoint_segments: int = 0,
        record_events: bool = False,
    ):
        self.comm = comm
        self.stage = comm.rank
        self.n_stages = comm.size
        self.module = StageModule(blocks, checkpoint_segments=checkpoint_segments)
        self.head = head
        self.loss_head = loss_head
        config = config or SAMOConfig()
        if mask is None and samo_sparsity is not None:
            from ..pruning.magnitude import magnitude_prune

            mask = magnitude_prune(self.module, samo_sparsity)
        if mask is not None:
            self.optimizer = SAMOOptimizer(self.module, mask, config)
            self._state = self.optimizer.state
        else:
            self.optimizer = None
            self._state = DenseMixedPrecisionState(self.module, config)
        self.losses: list[float] = []
        #: optional callable(state) run after gradient accumulation and
        #: before the optimizer step — the data-parallel all-reduce hook
        #: (AxoNN synchronises gradients exactly at this point).
        self.grad_sync = None
        self.record_events = record_events
        #: per-rank event ledger (only appended to when ``record_events``)
        self.events: list[tuple] = []
        #: wall seconds per phase, accumulated across train steps
        self.phase_seconds = {"forward": 0.0, "backward": 0.0, "p2p": 0.0}

    @property
    def is_first(self) -> bool:
        return self.stage == 0

    @property
    def is_last(self) -> bool:
        return self.stage == self.n_stages - 1

    # ------------------------------------------------------------------
    def _send(self, peer: int, payload: np.ndarray, tag: int) -> None:
        t0 = time.perf_counter()
        if OBS.enabled:
            with OBS.tracer.span(
                "send", category="exec.p2p", track=f"rank{self.stage}",
                peer=peer, tag=tag,
            ):
                self.comm.send(peer, payload, tag=tag)
        else:
            self.comm.send(peer, payload, tag=tag)
        self.phase_seconds["p2p"] += time.perf_counter() - t0
        if self.record_events:
            self.events.append(("send", peer, tag, payload.nbytes))

    def _recv(self, peer: int, tag: int) -> np.ndarray:
        t0 = time.perf_counter()
        if OBS.enabled:
            with OBS.tracer.span(
                "recv", category="exec.p2p", track=f"rank{self.stage}",
                peer=peer, tag=tag,
            ):
                payload = self.comm.recv(peer, tag=tag)
        else:
            payload = self.comm.recv(peer, tag=tag)
        self.phase_seconds["p2p"] += time.perf_counter() - t0
        if self.record_events:
            self.events.append(("recv", peer, tag, payload.nbytes))
        return payload

    def _forward_microbatch(self, batch_input) -> tuple[Tensor, Tensor]:
        """Run this stage's forward; returns (stage_input, stage_output)."""
        if self.is_first:
            x = self.head(batch_input) if self.head is not None else batch_input
            if not isinstance(x, Tensor):
                x = Tensor(np.asarray(x, dtype=np.float32))
        else:
            act = self._recv(self.stage - 1, tag=TAG_ACT)
            x = Tensor(act, requires_grad=True)
        t0 = time.perf_counter()
        if OBS.enabled:
            with OBS.tracer.span(
                "forward", category="exec.forward", track=f"rank{self.stage}"
            ):
                out = self.module(x)
        else:
            out = self.module(x)
        self.phase_seconds["forward"] += time.perf_counter() - t0
        if self.record_events:
            self.events.append(("fwd",))
        if not self.is_last:
            self._send(self.stage + 1, out.data, tag=TAG_ACT)
        return x, out

    def _backward_microbatch(self, x: Tensor, out: Tensor, targets) -> float | None:
        """Run this stage's backward; returns the loss on the last stage."""
        loss_val = None
        upstream = None
        if not self.is_last:
            upstream = self._recv(self.stage + 1, tag=TAG_GRAD)
        t0 = time.perf_counter()
        if OBS.enabled:
            with OBS.tracer.span(
                "backward", category="exec.backward", track=f"rank{self.stage}"
            ):
                loss_val = self._run_backward(x, out, targets, upstream)
        else:
            loss_val = self._run_backward(x, out, targets, upstream)
        self.phase_seconds["backward"] += time.perf_counter() - t0
        if self.record_events:
            self.events.append(("bwd",))
        if not self.is_first:
            self._send(self.stage - 1, x.grad, tag=TAG_GRAD)
        return loss_val

    def _run_backward(self, x, out, targets, upstream) -> float | None:
        if self.is_last:
            loss = self.loss_head(out, targets) if self.loss_head is not None else out
            loss.backward()
            return loss.item()
        out.backward(upstream)
        return None

    def train_step(
        self, microbatches: list, targets: list, schedule: str = "sequential"
    ) -> float | None:
        """One batch = forward+backward over every microbatch, then step.

        ``microbatches[i]`` is the stage-0 input of microbatch ``i`` (only
        read on the first stage); ``targets[i]`` only on the last stage.
        Returns the mean microbatch loss on the last stage, None elsewhere.

        Gradients accumulate across microbatches (compressed, for SAMO
        stages) before one optimizer step — AxoNN's execution order.

        ``schedule`` picks the microbatch interleaving; both orders are
        numerically identical (same per-microbatch graphs, same gradient
        accumulation), they differ only in pipeline concurrency:

        * ``"sequential"`` — microbatch ``i`` completes its full
          forward *and* backward before ``i+1`` starts (the historical
          order; no inter-stage concurrency, every stage but one idles).
        * ``"gpipe"`` — all forwards first, then all backwards: stage
          ``s`` starts forward ``i+1`` as soon as it has sent forward
          ``i`` downstream, so the per-rank busy/idle structure realizes
          Eq. 7's ``(g-1)(t_f + t_b)`` warmup/drain bubble — the order
          the measured fidelity executes.
        """
        if len(microbatches) != len(targets):
            raise ValueError("microbatches and targets must align")
        if schedule not in ("sequential", "gpipe"):
            raise ValueError(
                f"unknown schedule {schedule!r}; choose 'sequential' or 'gpipe'"
            )
        vals = []
        if schedule == "gpipe":
            saved = [self._forward_microbatch(mb) for mb in microbatches]
            for (x, out), tgt in zip(saved, targets):
                v = self._backward_microbatch(x, out, tgt)
                if v is not None:
                    vals.append(v)
                self._state.compress_gradients()
        else:
            for mb, tgt in zip(microbatches, targets):
                x, out = self._forward_microbatch(mb)
                v = self._backward_microbatch(x, out, tgt)
                if v is not None:
                    vals.append(v)
                self._state.compress_gradients()
        if self.grad_sync is not None:
            self.grad_sync(self._state)
        self._state.step()
        if self.is_last:
            mean = float(np.mean(vals))
            self.losses.append(mean)
            return mean
        return None
