"""Analytical performance model of hybrid parallel training (paper Sec. IV).

Implements the paper's equations:

* Eq. 6-7: pipeline bubble ``t_bubble = (G_inter - 1) * (t_f + t_b) / G_inter``
* Eq. 8:   ``d t_bubble / d G_inter > 0`` (monotone in ``G_inter``)
* Eq. 9-10: transmission ``t_send ∝ 4 * B / (mbs * G_data)``; with
  ``G_inter * G_data = G`` this is ``∝ G_inter``
* Eq. 11:  ``d t_send / d G_inter > 0``

plus the batch-time breakdown container used by every framework simulator
(the Figure 8 phases: compute, p2p, bubble, collective, other).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "bubble_time",
    "transmission_time",
    "microbatches_per_gpu",
    "BatchBreakdown",
    "ParallelConfig",
]


def bubble_time(g_inter: int, t_f: float, t_b: float) -> float:
    """Eq. 7: pipeline bubble per GPU for uniform stages.

    ``t_f``/``t_b`` are the forward/backward times of one microbatch
    through the *entire* model (compute only); each stage costs
    ``(t_f + t_b)/G_inter`` and the bubble equals ``G_inter - 1`` of them.
    """
    if g_inter < 1:
        raise ValueError("g_inter must be >= 1")
    return (t_f + t_b) * (1.0 - 1.0 / g_inter)


def microbatches_per_gpu(batch_size: int, g_data: int, mbs: int) -> int:
    """``B / (G_data * mbs)`` — microbatches every pipeline GPU processes."""
    if batch_size % (g_data * mbs):
        raise ValueError(
            f"batch {batch_size} not divisible by G_data*mbs = {g_data}*{mbs}"
        )
    return batch_size // (g_data * mbs)


def transmission_time(
    batch_size: int,
    g_data: int,
    mbs: int,
    message_time: float,
    g_inter: int,
) -> float:
    """Eq. 9: ``t_send = 4 * B/(mbs*G_data) * t_msg`` per GPU.

    Four messages per microbatch: activation recv+send in the forward,
    gradient recv+send in the backward. Boundary GPUs send fewer; we model
    the interior-GPU (worst, and typical) count like the paper does.
    A single-stage pipeline (``g_inter == 1``) sends nothing — which is
    why ``g_inter`` is required: it used to default to ``None``, silently
    charging single-stage pipelines the interior-GPU send cost.
    """
    if g_inter < 1:
        raise ValueError(f"g_inter must be >= 1, got {g_inter}")
    if g_inter == 1:
        return 0.0
    m = microbatches_per_gpu(batch_size, g_data, mbs)
    return 4.0 * m * message_time


@dataclass(frozen=True, slots=True)
class ParallelConfig:
    """The G = G_inter x G_data decomposition actually used for a run."""

    n_gpus: int
    g_inter: int
    g_data: int
    mbs: int
    microbatches: int  # per GPU, = B / (G_data * mbs)

    def __post_init__(self):
        if self.g_inter * self.g_data != self.n_gpus:
            raise ValueError(
                f"G_inter*G_data = {self.g_inter}*{self.g_data} != G = {self.n_gpus}"
            )

    def to_dict(self) -> dict:
        return {
            "n_gpus": self.n_gpus,
            "g_inter": self.g_inter,
            "g_data": self.g_data,
            "mbs": self.mbs,
            "microbatches": self.microbatches,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ParallelConfig":
        return cls(**data)


@dataclass(slots=True)
class BatchBreakdown:
    """Non-overlapping phases of one training batch (Figure 8)."""

    framework: str
    model: str
    config: ParallelConfig
    compute: float
    p2p: float
    bubble: float
    collective: float
    other: float
    #: per-GPU model-state + activation memory in bytes (for reports)
    memory_per_gpu: int = 0
    notes: dict = field(default_factory=dict)

    @property
    def total(self) -> float:
        return self.compute + self.p2p + self.bubble + self.collective + self.other

    @property
    def communication(self) -> float:
        """Total communication-attributable time (p2p + bubble + collective)."""
        return self.p2p + self.bubble + self.collective

    @property
    def collective_additive(self) -> float:
        """The collective phase the additive model would charge.

        Equal to :attr:`collective` unless the overlap-aware event engine
        priced this batch, in which case the exposed (post-overlap) time
        lands in :attr:`collective` and the pre-overlap sum lives here.
        """
        return self.notes.get("collective_additive", self.collective)

    @property
    def collective_hidden(self) -> float:
        """Collective seconds hidden under the pipeline drain (overlap runs)."""
        return self.notes.get("collective_hidden", 0.0)

    def speedup_over(self, other: "BatchBreakdown") -> float:
        """Percentage speedup of *this* run relative to ``other``:
        ``(t_other / t_self - 1) * 100`` (the paper's annotation metric)."""
        return (other.total / self.total - 1.0) * 100.0

    def as_row(self) -> dict:
        return {
            "framework": self.framework,
            "model": self.model,
            "gpus": self.config.n_gpus,
            "G_inter": self.config.g_inter,
            "G_data": self.config.g_data,
            "compute_s": round(self.compute, 4),
            "p2p_s": round(self.p2p, 4),
            "bubble_s": round(self.bubble, 4),
            "collective_s": round(self.collective, 4),
            "other_s": round(self.other, 4),
            "total_s": round(self.total, 4),
        }

    def to_dict(self) -> dict:
        """Exact JSON-ready mapping (full-precision floats, unlike
        :meth:`as_row`); inverse of :meth:`from_dict`, so breakdowns are
        diffable artifacts."""
        # notes may carry enums (e.g. StorageMode); flatten to plain values
        notes = {k: getattr(v, "value", v) for k, v in self.notes.items()}
        return {
            "framework": self.framework,
            "model": self.model,
            "config": self.config.to_dict(),
            "compute": self.compute,
            "p2p": self.p2p,
            "bubble": self.bubble,
            "collective": self.collective,
            "other": self.other,
            "total": self.total,
            "memory_per_gpu": self.memory_per_gpu,
            "notes": notes,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BatchBreakdown":
        data = dict(data)
        data.pop("total", None)  # derived
        data["config"] = ParallelConfig.from_dict(data["config"])
        return cls(**data)
