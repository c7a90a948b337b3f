"""The workload half of a costing question, as one frozen value object.

Everything that identifies *what* is being trained and *how it should
be costed* lives in a :class:`Job`: hashable, serializable, and
validated once at construction.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

from ..autotune.config import FRAMEWORKS
from ..parallel.scenarios import PLACEMENTS

__all__ = ["Job"]

PARTITION_MODES = ("flops", "time")


@dataclass(frozen=True)
class Job:
    """One training workload to cost on a :class:`~repro.api.Machine`.

    ``fidelity=None`` means "unspecified": entry points then pick
    ``"analytic"``, or ``"sim"`` when a scenario is in play (the shared
    :func:`~repro.parallel.scenarios.resolve_fidelity` rule). An
    explicit ``"analytic"`` combined with a scenario raises everywhere.

    ``framework`` matters to :meth:`Session.breakdown`/:meth:`Session.trace`
    (one framework runs the batch); :meth:`Session.plan` searches over
    frameworks and uses the job's sparsity/fidelity/partition_mode only.

    ``overlap=True`` hides the bucketed data-parallel all-reduce behind
    the pipeline drain on the event timeline; ``placement="best"``
    prices the pipeline at the optimized replica placement instead of
    the contiguous block layout. Both need the event engine, so they
    imply ``fidelity="sim"`` when the fidelity is unspecified and raise
    with an explicit ``"analytic"``.

    >>> job = Job(model="gpt3-xl", n_gpus=64, framework="axonn+samo")
    >>> job.with_(overlap=True).overlap
    True
    >>> Job.from_dict(job.to_dict()) == job
    True
    """

    model: str
    n_gpus: int
    framework: str = "axonn"
    sparsity: float = 0.9
    mbs: int = 1
    partition_mode: str = "flops"
    fidelity: str | None = None
    overlap: bool = False
    placement: str = "block"

    def __post_init__(self):
        if not isinstance(self.model, str) or not self.model:
            raise ValueError(f"model must be a non-empty name, got {self.model!r}")
        if self.n_gpus < 1:
            raise ValueError(f"n_gpus must be >= 1, got {self.n_gpus}")
        if self.mbs < 1:
            raise ValueError(f"mbs must be >= 1, got {self.mbs}")
        if not 0.0 <= self.sparsity <= 1.0:
            raise ValueError(f"sparsity must be in [0,1], got {self.sparsity}")
        if self.partition_mode not in PARTITION_MODES:
            raise ValueError(
                f"unknown partition_mode {self.partition_mode!r}; "
                f"choose from {PARTITION_MODES}"
            )
        # the engine owns the placement vocabulary; validating against it
        # here keeps Job and simulate_hetero_pipeline from ever drifting
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {self.placement!r}; choose from {PLACEMENTS}"
            )
        if not isinstance(self.overlap, bool):
            raise ValueError(f"overlap must be a bool, got {self.overlap!r}")
        if self.framework not in FRAMEWORKS:
            raise ValueError(
                f"unknown framework {self.framework!r}; choose from {FRAMEWORKS}"
            )

    # ------------------------------------------------------------------
    def with_(self, **changes) -> "Job":
        """Functional update preserving validation."""
        return replace(self, **changes)

    def cache_key(self) -> tuple:
        """Hashable canonical identity; equal for equivalently-built Jobs."""
        return (
            self.model,
            self.n_gpus,
            self.framework,
            round(self.sparsity, 6),
            self.mbs,
            self.partition_mode,
            self.fidelity,
            self.overlap,
            self.placement,
        )

    def canonical_hash(self) -> str:
        """Short stable digest of :meth:`cache_key`."""
        payload = "|".join(str(x) for x in self.cache_key())
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def describe(self) -> str:
        fid = self.fidelity if self.fidelity is not None else "auto"
        extras = ""
        if self.overlap:
            extras += ", overlap"
        if self.placement != "block":
            extras += f", placement={self.placement}"
        return (
            f"{self.model} on {self.n_gpus} GPUs "
            f"[{self.framework}, p={self.sparsity:g}, mbs={self.mbs}, "
            f"partition={self.partition_mode}, fidelity={fid}{extras}]"
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready mapping; inverse of :meth:`from_dict`."""
        return {
            "model": self.model,
            "n_gpus": self.n_gpus,
            "framework": self.framework,
            "sparsity": self.sparsity,
            "mbs": self.mbs,
            "partition_mode": self.partition_mode,
            "fidelity": self.fidelity,
            "overlap": self.overlap,
            "placement": self.placement,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Job":
        return cls(**data)
