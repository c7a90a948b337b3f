"""Candidate hybrid-parallel configurations for the autotuner.

A :class:`CandidateConfig` is one point of the search space: which
framework runs the batch, how the ``G = G_tensor x G_inter x G_data``
decomposition splits the machine, the microbatch size, whether
activations are checkpointed, how model state is stored, and at what
sparsity. It is frozen and hashable so it can key the evaluation cache
directly, and :meth:`CandidateConfig.create` canonicalises redundant
axes (dense storage ignores sparsity) so equivalent configs always
produce the same cache entry.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from ..cluster.calibration import SUMMIT, SummitCalibration
from ..parallel.partitioner import StorageMode, choose_g_inter

__all__ = [
    "FRAMEWORKS",
    "FRAMEWORK_MODES",
    "SPARSE_MODES",
    "CandidateConfig",
    "candidate_for_workload",
]

#: The frameworks the paper compares: dense AxoNN, AxoNN with SAMO
#: storage (this paper), DeepSpeed-3D, and Sputnik's sparse kernels
#: inside AxoNN.
FRAMEWORKS = ("axonn", "axonn+samo", "deepspeed-3d", "sputnik")

#: Storage modes each framework can legally run with; the first is its
#: paper-protocol mode. AxoNN variants are defined by their storage
#: strategy; DeepSpeed-3D may run its dense baseline or shard optimizer
#: state with ZeRO-1.
FRAMEWORK_MODES: dict[str, tuple[StorageMode, ...]] = {
    "axonn": (StorageMode.DENSE,),
    "axonn+samo": (StorageMode.SAMO,),
    "deepspeed-3d": (StorageMode.DENSE, StorageMode.ZERO1),
    "sputnik": (StorageMode.SPARSE_KERNEL,),
}

#: Modes whose footprint and gradient payload depend on sparsity.
SPARSE_MODES = frozenset({StorageMode.SAMO, StorageMode.SPARSE_KERNEL})


@dataclass(frozen=True, slots=True)
class CandidateConfig:
    """One point of the autotuner's search space (slotted: a planning
    server's :class:`~repro.autotune.space.CandidateMemo` holds
    thousands)."""

    framework: str
    g_tensor: int
    g_inter: int
    g_data: int
    mbs: int
    checkpoint_activations: bool
    mode: StorageMode
    sparsity: float
    #: memo of :meth:`canonical_hash` (outside ``==``, hash and repr)
    _canonical_hash: str | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.framework not in FRAMEWORK_MODES:
            raise ValueError(
                f"unknown framework {self.framework!r}; "
                f"known: {sorted(FRAMEWORK_MODES)}"
            )
        if self.mode not in FRAMEWORK_MODES[self.framework]:
            raise ValueError(
                f"storage mode {self.mode} is invalid for {self.framework!r}; "
                f"allowed: {[str(m) for m in FRAMEWORK_MODES[self.framework]]}"
            )
        for name in ("g_tensor", "g_inter", "g_data", "mbs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.sparsity <= 1.0:
            raise ValueError(f"sparsity must be in [0,1], got {self.sparsity}")
        if self.mode not in SPARSE_MODES and self.sparsity != 0.0:
            raise ValueError(
                f"dense mode {self.mode} must use the canonical sparsity 0.0 "
                f"(got {self.sparsity}); build configs via CandidateConfig.create"
            )

    @classmethod
    def create(
        cls,
        framework: str,
        g_tensor: int = 1,
        g_inter: int = 1,
        g_data: int = 1,
        mbs: int = 1,
        checkpoint_activations: bool = True,
        mode: StorageMode | str | None = None,
        sparsity: float = 0.9,
    ) -> "CandidateConfig":
        """Build a canonical config.

        ``mode`` defaults to the framework's primary storage mode, and
        sparsity is zeroed for dense modes (it has no effect there), so
        two configs that behave identically hash identically.
        """
        if mode is None:
            mode = FRAMEWORK_MODES.get(framework, (StorageMode.DENSE,))[0]
        mode = StorageMode(mode)
        if mode not in SPARSE_MODES:
            sparsity = 0.0
        return cls(
            framework=framework,
            g_tensor=g_tensor,
            g_inter=g_inter,
            g_data=g_data,
            mbs=mbs,
            checkpoint_activations=checkpoint_activations,
            mode=mode,
            sparsity=float(sparsity),
        )

    # ------------------------------------------------------------------
    @property
    def n_gpus(self) -> int:
        return self.g_tensor * self.g_inter * self.g_data

    @property
    def model_parallel_degree(self) -> int:
        """GPUs holding one model replica: ``G_tensor * G_inter``."""
        return self.g_tensor * self.g_inter

    def canonical_key(self) -> tuple:
        """Hashable canonical identity (used in cache keys and tests)."""
        return (
            self.framework,
            self.g_tensor,
            self.g_inter,
            self.g_data,
            self.mbs,
            self.checkpoint_activations,
            self.mode.value,
            round(self.sparsity, 6),
        )

    def canonical_hash(self) -> str:
        """Short stable digest of :meth:`canonical_key`.

        Memoised on the instance (the config is frozen): cache keys
        recompute it for every candidate on every plan, and the sha256
        round-trip was a measurable slice of planner overhead.
        """
        cached = self._canonical_hash
        if cached is None:
            payload = "|".join(str(x) for x in self.canonical_key())
            cached = hashlib.sha256(payload.encode()).hexdigest()[:16]
            object.__setattr__(self, "_canonical_hash", cached)
        return cached

    def with_(self, **changes) -> "CandidateConfig":
        """Functional update preserving validation."""
        return replace(self, **changes)

    def to_dict(self) -> dict:
        """JSON-ready mapping; inverse of :meth:`from_dict`."""
        return {
            "framework": self.framework,
            "g_tensor": self.g_tensor,
            "g_inter": self.g_inter,
            "g_data": self.g_data,
            "mbs": self.mbs,
            "checkpoint_activations": self.checkpoint_activations,
            "mode": self.mode.value,
            "sparsity": self.sparsity,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CandidateConfig":
        return cls(**{**data, "mode": StorageMode(data["mode"])})

    def describe(self) -> str:
        ckpt = "ckpt" if self.checkpoint_activations else "no-ckpt"
        sp = f", p={self.sparsity:g}" if self.mode in SPARSE_MODES else ""
        return (
            f"{self.framework}[{self.mode}] G_tensor={self.g_tensor} "
            f"G_inter={self.g_inter} G_data={self.g_data} "
            f"mbs={self.mbs} {ckpt}{sp}"
        )


def candidate_for_workload(
    spec, framework: str, n_gpus: int, *,
    sparsity: float = 0.9, mbs: int = 1, cal: SummitCalibration = SUMMIT,
) -> CandidateConfig:
    """The paper-protocol candidate of a (model, GPUs, framework) workload.

    GPT models run the hybrid with the smallest ``G_inter`` the memory
    model fits in the framework's storage mode, checkpointing on; CNNs
    run pure data parallel, which Sputnik's kernels cannot (they have no
    sparse convolutions).
    """
    mode = FRAMEWORK_MODES[framework][0]
    if spec.family == "cnn":
        if framework == "sputnik":
            raise ValueError("Sputnik does not support sparse convolutions (paper Sec. V-B)")
        return CandidateConfig.create(
            framework, g_data=n_gpus, mbs=mbs, mode=mode, sparsity=sparsity
        )
    g_inter = choose_g_inter(spec, n_gpus, mode, sparsity, mbs, cal)
    return CandidateConfig.create(
        framework,
        g_inter=g_inter,
        g_data=n_gpus // g_inter,
        mbs=mbs,
        mode=mode,
        sparsity=sparsity,
    )
