"""Search-space enumeration for the autotuner.

:class:`SearchSpace` yields every valid :class:`CandidateConfig` for a
model on ``n_gpus`` GPUs, applying the structural constraints up front:

* ``G_tensor * G_inter * G_data == G`` (exact decomposition);
* ``G_inter <= num_layers`` (at least one layer per stage);
* ``B % (G_data * mbs) == 0`` with at least one microbatch per pipeline;
* ``G_tensor`` stays inside a node (NVLink domain) and is only explored
  for the framework that implements intra-layer parallelism
  (DeepSpeed-3D's Megatron dimension);
* storage modes legal for each framework (:data:`FRAMEWORK_MODES`);
* CNNs run pure data parallel (``G_inter = G_tensor = 1``, no
  checkpointing), as in the paper's Figure 5 setup.

Infeasible-memory branches are cut *before* costing: if the irreducible
per-GPU footprint (activations + framework overhead, which no amount of
pipelining shards away) exceeds the budget, the whole
``(mode, sparsity, mbs, checkpoint)`` branch is dropped; individual
candidates whose state shard cannot fit are likewise pruned by a cheap
lower bound. Only plausible candidates reach the estimator.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterator

from ..cluster.calibration import SUMMIT, SummitCalibration
from ..models.spec import ModelSpec
from ..parallel.partitioner import model_state_bytes
from .cache import spec_signature
from .config import FRAMEWORK_MODES, FRAMEWORKS, SPARSE_MODES, CandidateConfig
from .estimator import activation_footprint_bytes

__all__ = ["SearchSpace", "SpaceStats", "CandidateMemo"]


def _divisors(n: int) -> list[int]:
    """All divisors of ``n``, ascending."""
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


@dataclass
class SpaceStats:
    """Enumeration accounting (how much pruning saved)."""

    generated: int = 0
    pruned_memory: int = 0
    pruned_branches: int = 0

    def as_dict(self) -> dict:
        return {
            "generated": self.generated,
            "pruned_memory": self.pruned_memory,
            "pruned_branches": self.pruned_branches,
        }

    def add(self, other: "SpaceStats") -> None:
        self.generated += other.generated
        self.pruned_memory += other.pruned_memory
        self.pruned_branches += other.pruned_branches


@dataclass
class SearchSpace:
    """Valid hybrid-parallel configurations for one model and GPU count."""

    spec: ModelSpec
    n_gpus: int
    frameworks: tuple[str, ...] = FRAMEWORKS
    sparsities: tuple[float, ...] = (0.9,)
    microbatch_sizes: tuple[int, ...] = (1, 2, 4)
    explore_no_checkpoint: bool = True
    #: cap on the Megatron (intra-layer) degree; also capped by node size
    max_tensor_parallel: int = 4
    cal: SummitCalibration = SUMMIT
    stats: SpaceStats = field(default_factory=SpaceStats)

    def __post_init__(self):
        if self.n_gpus < 1:
            raise ValueError(f"n_gpus must be >= 1, got {self.n_gpus}")
        unknown = [f for f in self.frameworks if f not in FRAMEWORK_MODES]
        if unknown:
            raise ValueError(
                f"unknown frameworks {unknown}; known: {sorted(FRAMEWORK_MODES)}"
            )
        for p in self.sparsities:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"sparsity must be in [0,1], got {p}")

    # ------------------------------------------------------------------
    def _tensor_degrees(self, framework: str) -> tuple[int, ...]:
        """Intra-layer degrees to explore for ``framework``.

        Only DeepSpeed-3D models a Megatron dimension; it must divide the
        GPU count and stay within the NVLink domain (node size).
        """
        if framework != "deepspeed-3d":
            return (1,)
        cap = min(self.max_tensor_parallel, self.cal.gpus_per_node)
        degs = [1]
        g = 2
        while g <= cap:
            if self.n_gpus % g == 0:
                degs.append(g)
            g *= 2
        return tuple(degs)

    def _checkpoint_options(self) -> tuple[bool, ...]:
        if self.spec.family == "cnn":
            return (False,)  # the paper's CNNs fit without recompute
        return (True, False) if self.explore_no_checkpoint else (True,)

    # ------------------------------------------------------------------
    def candidates(self) -> Iterator[CandidateConfig]:
        """Yield valid candidates, cheapest structural checks first."""
        if self.spec.family == "cnn":
            yield from self._cnn_candidates()
            return
        budget = self.cal.gpu_memory_bytes
        overhead = self.cal.framework_overhead_bytes
        max_stages = min(self.n_gpus, self.spec.num_layers)
        for framework in self.frameworks:
            for mode in FRAMEWORK_MODES[framework]:
                sparsities = self.sparsities if mode in SPARSE_MODES else (0.0,)
                for sparsity in sparsities:
                    for g_tensor in self._tensor_degrees(framework):
                        remaining = self.n_gpus // g_tensor
                        state = model_state_bytes(
                            self.spec, mode, sparsity, g_data=remaining
                        )
                        for mbs in self.microbatch_sizes:
                            for checkpoint in self._checkpoint_options():
                                # Branch cut: activations + overhead are
                                # irreducible in G_inter — if they alone
                                # blow the budget, no pipeline depth helps.
                                acts = activation_footprint_bytes(
                                    self.spec, mbs, checkpoint
                                )
                                if acts // g_tensor + overhead > budget:
                                    self.stats.pruned_branches += 1
                                    continue
                                yield from self._pipeline_depths(
                                    framework, mode, sparsity, g_tensor,
                                    remaining, state, mbs, checkpoint,
                                    acts, budget, overhead, max_stages,
                                )

    def _pipeline_depths(
        self, framework, mode, sparsity, g_tensor, remaining,
        state, mbs, checkpoint, acts, budget, overhead, max_stages,
    ) -> Iterator[CandidateConfig]:
        for g_inter in _divisors(remaining):
            if g_inter > max_stages:
                continue
            g_data = remaining // g_inter
            # batch divisibility: every pipeline gets whole microbatches
            # (divisibility of a positive batch also guarantees >= 1 each)
            if self.spec.batch_size % (g_data * mbs):
                continue
            # Candidate-level memory lower bound before costing.
            mem_lb = (
                state // (g_tensor * g_inter) + acts // g_tensor + overhead
            )
            if mem_lb > budget:
                self.stats.pruned_memory += 1
                continue
            self.stats.generated += 1
            yield CandidateConfig.create(
                framework=framework,
                g_tensor=g_tensor,
                g_inter=g_inter,
                g_data=g_data,
                mbs=mbs,
                checkpoint_activations=checkpoint,
                mode=mode,
                sparsity=sparsity,
            )

    def _cnn_candidates(self) -> Iterator[CandidateConfig]:
        """Pure data parallel; Sputnik has no sparse convolutions."""
        if self.spec.batch_size % self.n_gpus:
            return
        budget = self.cal.gpu_memory_bytes
        overhead = self.cal.framework_overhead_bytes
        for framework in self.frameworks:
            if framework == "sputnik":
                continue
            for mode in FRAMEWORK_MODES[framework]:
                sparsities = self.sparsities if mode in SPARSE_MODES else (0.0,)
                for sparsity in sparsities:
                    state = model_state_bytes(
                        self.spec, mode, sparsity, g_data=self.n_gpus
                    )
                    acts = activation_footprint_bytes(self.spec, 1, False)
                    if state + acts + overhead > budget:
                        self.stats.pruned_memory += 1
                        continue
                    self.stats.generated += 1
                    yield CandidateConfig.create(
                        framework=framework,
                        g_tensor=1,
                        g_inter=1,
                        g_data=self.n_gpus,
                        mbs=1,
                        checkpoint_activations=False,
                        mode=mode,
                        sparsity=sparsity,
                    )

    def size_upper_bound(self) -> int:
        """Loose bound on candidate count (before pruning), for reports."""
        n_modes = sum(len(FRAMEWORK_MODES[f]) for f in self.frameworks)
        return (
            n_modes
            * max(len(self.sparsities), 1)
            * len(self.microbatch_sizes)
            * len(self._checkpoint_options())
            * len(_divisors(self.n_gpus))
            * len(self._tensor_degrees("deepspeed-3d"))
        )


class CandidateMemo:
    """Bounded LRU of enumerated search spaces.

    A planning server asks about the same spaces over and over; each
    hit returns the configs enumerated the first time and their
    ``canonical_hash`` list, kept in the same entry (so the list lives
    and dies with its configs), instead of re-walking the grid and
    rebuilding the list. The key is every :class:`SearchSpace` input,
    with the model identified as in evaluation cache keys
    (:func:`spec_signature`, plus the family and sequence length the
    enumeration also reads).

    The bound counts configs, not spaces: a narrowed event-engine space
    holds a handful and a Table I full-axis space 91-247, so a count of
    spaces bounds nothing. A sweep of the 16 Table I (model, GPU count)
    pairs over six sparsities is 96 spaces and 17,138 configs, 3.2 MB
    held. A config with its hash costs 188 B and an entry's key, lists
    and counts about 600 B more, so each entry also counts as
    :attr:`ENTRY_CONFIGS` configs: a full memo holds about 6 MB whatever
    its spaces' sizes, and only when no stored cell shares its configs.
    A space larger than the bound is served but not kept.
    """

    #: configs a full memo holds, over all its spaces
    MAX_CONFIGS = 32_768
    #: configs an entry counts as beside its own
    ENTRY_CONFIGS = 3

    def __init__(self):
        self._entries: OrderedDict = OrderedDict()
        self._held = 0  # configs held, each entry counting ENTRY_CONFIGS more
        self._lock = threading.Lock()

    def lookup(self, space: SearchSpace) -> tuple[tuple, tuple]:
        """``space``'s candidates and their ``canonical_hash`` values, in
        the same order; ``space.stats`` grows by the enumeration's counts
        on a hit too, as if it had re-enumerated."""
        spec = space.spec
        # GPU count and micro-batch sizes by type too: 64 == 64.0 and
        # (True,) == (1,) == (1.0,), yet each is written into the configs
        # as given
        key = (
            spec_signature(spec), spec.family, spec.seq_len,
            type(space.n_gpus), space.n_gpus,
            tuple(space.frameworks), tuple(space.sparsities),
            tuple((type(m), m) for m in space.microbatch_sizes),
            space.explore_no_checkpoint, space.max_tensor_parallel, space.cal,
        )
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is None:
            total, space.stats = space.stats, SpaceStats()
            try:
                configs = tuple(space.candidates())
            finally:
                counts, space.stats = space.stats, total
            entry = (configs, tuple(c.canonical_hash() for c in configs), counts)
            weight = len(configs) + self.ENTRY_CONFIGS
            with self._lock:
                # a racing lookup may have kept an equal entry meanwhile
                if key not in self._entries and weight <= self.MAX_CONFIGS:
                    self._entries[key] = entry
                    self._held += weight
                    while self._held > self.MAX_CONFIGS:
                        dropped = self._entries.popitem(last=False)[1][0]
                        self._held -= len(dropped) + self.ENTRY_CONFIGS
        configs, hashes, counts = entry
        space.stats.add(counts)
        return configs, hashes
