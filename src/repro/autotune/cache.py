"""Memoisation of candidate evaluations.

Costing a candidate is pure in ``(model, calibration, fidelity,
config)``, so evaluations are memoised under that key. The cache is
shared process-wide by default (:data:`GLOBAL_CACHE`): a repeated
identical search — or a sweep over overlapping spaces, e.g. planning the
same model at several GPU counts — returns without re-evaluating any
config it has already costed.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..cluster.calibration import SummitCalibration
from ..models.spec import ModelSpec
from .config import CandidateConfig
from .estimator import Evaluation

__all__ = [
    "EvaluationCache",
    "GLOBAL_CACHE",
    "spec_signature",
    "cache_key_prefix",
    "evaluation_cache_key",
    "make_cache_key",
]


def spec_signature(spec: ModelSpec) -> tuple:
    """Shape signature identifying a model spec in cache keys.

    Name alone would alias differently-built specs that share a name.
    """
    return (spec.name, spec.param_count, spec.batch_size, spec.num_layers)


def cache_key_prefix(
    machine,
    spec: ModelSpec,
    fidelity: str,
    scenario=None,
    partition_mode: str = "flops",
) -> tuple:
    """Every part of :func:`evaluation_cache_key` except the config.

    One request prices many configs of one workload, so it builds this
    prefix once and appends each ``config.canonical_hash()``.
    """
    machine_key = (
        machine.canonical_key() if hasattr(machine, "canonical_key") else machine
    )
    return (*spec_signature(spec), machine_key, fidelity, scenario, partition_mode)


def evaluation_cache_key(
    machine,
    spec: ModelSpec,
    fidelity: str,
    config: CandidateConfig,
    scenario=None,
    partition_mode: str = "flops",
) -> tuple:
    """Canonical cache key for one candidate evaluation.

    Derived from the frozen value objects rather than hand-assembled at
    each call site: ``machine`` is an :class:`repro.api.Machine` (its
    :meth:`canonical_key` — a plain ``SummitCalibration`` is accepted for
    the legacy entry points), the model contributes its
    :func:`spec_signature`, the config its canonical hash, and
    ``scenario`` the full frozen
    :class:`~repro.parallel.scenarios.ClusterScenario` (not just its
    name — two differently-parameterised scenarios sharing a name must
    not alias). ``partition_mode`` comes from the
    :class:`~repro.api.Job` and separates flops- from time-balanced
    costings.
    """
    prefix = cache_key_prefix(machine, spec, fidelity, scenario, partition_mode)
    return (*prefix, config.canonical_hash())


def make_cache_key(
    spec: ModelSpec,
    cal: SummitCalibration,
    fidelity: str,
    config: CandidateConfig,
    scenario=None,
) -> tuple:
    """Legacy key builder; prefer :func:`evaluation_cache_key`.

    Kept so callers holding a bare calibration produce keys compatible
    with the :class:`~repro.api.Machine`-derived ones (a ``Machine``'s
    canonical key *is* its resolved calibration).
    """
    return evaluation_cache_key(cal, spec, fidelity, config, scenario=scenario)


@dataclass
class EvaluationCache:
    """Thread-safe evaluation memo with hit/miss/dedup accounting.

    ``dedup`` counts :meth:`put` calls that overwrote an existing entry
    — concurrent planners racing on the same key each evaluated the
    config, so a rising dedup count flags wasted duplicate work.
    """

    _entries: dict = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    hits: int = 0
    misses: int = 0
    dedup: int = 0

    def get(self, key: tuple) -> Evaluation | None:
        with self._lock:
            ev = self._entries.get(key)
            if ev is None:
                self.misses += 1
            else:
                self.hits += 1
            return ev

    def put(self, key: tuple, evaluation: Evaluation) -> None:
        with self._lock:
            if key in self._entries:
                self.dedup += 1
            self._entries[key] = evaluation

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.dedup = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> dict:
        """One consistent snapshot of entry count and counters.

        Taken under the lock so a concurrent ``get``/``put`` can never
        produce a torn read (e.g. a hit counted but its entry not yet
        visible).
        """
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "dedup": self.dedup,
            }


#: Process-wide default cache shared by all planners.
GLOBAL_CACHE = EvaluationCache()
