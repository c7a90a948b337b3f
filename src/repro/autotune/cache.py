"""Memoisation of candidate evaluations.

Costing a candidate is pure in ``(model, calibration, fidelity,
config)``, so evaluations are memoised under that key. The cache is
shared process-wide by default (:data:`GLOBAL_CACHE`): a repeated
identical search — or a sweep over overlapping spaces, e.g. planning the
same model at several GPU counts — returns without re-evaluating any
config it has already costed.

A request prices a candidates × columns matrix, and every cell of a
column shares that column's :func:`cache_key_prefix` (model, machine,
fidelity, scenario, partition mode). The cache interns each distinct
prefix to a small int and stores a cell under ``(prefix_id,
config_hash)``, so a request hashes each prefix once rather than once
per cell. A prefix stays interned while it has a stored or in-flight
cell.

Requests claim their cells a whole matrix at a time (single flight):
:meth:`EvaluationCache.acquire` sorts every cell into a hit, a miss the
request now owns, or a miss another request is already pricing, in one
locked pass; :meth:`~EvaluationCache.fulfil` publishes the owned cells
and wakes every request waiting on them, and
:meth:`~EvaluationCache.abandon` fails them instead. A thundering herd
of identical requests therefore prices each cell exactly once.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..models.spec import ModelSpec
from .config import CandidateConfig
from .estimator import Evaluation

__all__ = [
    "EvaluationCache",
    "Claim",
    "Flight",
    "GLOBAL_CACHE",
    "spec_signature",
    "cache_key_prefix",
    "evaluation_cache_key",
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
    prefix once per column; the cache interns it.
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
    :meth:`canonical_key` — a plain ``SummitCalibration`` gives the
    same key), the model contributes its
    :func:`spec_signature`, the config its canonical hash, and
    ``scenario`` the full frozen
    :class:`~repro.parallel.scenarios.ClusterScenario` (not just its
    name — two differently-parameterised scenarios sharing a name must
    not alias). ``partition_mode`` comes from the
    :class:`~repro.api.Job` and separates flops- from time-balanced
    costings. The key is :func:`cache_key_prefix` plus the config hash.
    """
    prefix = cache_key_prefix(machine, spec, fidelity, scenario, partition_mode)
    return (*prefix, config.canonical_hash())


class Flight:
    """The cells one request is pricing, for other requests to wait on."""

    __slots__ = ("_event", "_values", "_error")

    def __init__(self):
        self._event = threading.Event()
        self._values: dict | None = None
        self._error: BaseException | None = None

    def set(self, values: dict) -> None:
        self._values = values
        self._event.set()

    def fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def result(self, timeout: float | None = None) -> dict:
        """Block until the owning request publishes; its cells by key."""
        if not self._event.wait(timeout):
            raise TimeoutError("in-flight evaluation did not complete in time")
        if self._error is not None:
            raise RuntimeError(
                "coalesced evaluation failed in its owning request"
            ) from self._error
        return self._values


class Claim:
    """One request's cells of a candidates × columns matrix.

    ``values`` lists the cells row-major (candidate by candidate, each
    across every column): the stored :class:`Evaluation` for a hit,
    ``None`` for a miss. ``owned`` indexes the misses this request must
    price, write into ``values`` and hand to
    :meth:`EvaluationCache.fulfil` (or :meth:`~EvaluationCache.abandon`);
    ``waits`` maps another request's :class:`Flight` to the indices it
    is pricing, which :meth:`wait` fills in.
    """

    __slots__ = ("pids", "hashes", "values", "owned", "waits", "flight")

    def __init__(self, pids: list, hashes):
        self.pids = pids
        self.hashes = hashes
        self.values: list = []
        self.owned: list = []
        self.waits: dict = {}
        self.flight: Flight | None = None

    def cell(self, index: int) -> tuple:
        """The interned key ``(prefix_id, config_hash)`` of one cell."""
        n = len(self.pids)
        return (self.pids[index % n], self.hashes[index // n])

    @property
    def waiting(self) -> int:
        """Cells another request is pricing."""
        return sum(len(indices) for indices in self.waits.values())

    def wait(self, timeout: float | None = None) -> list:
        """Fill the waited cells from their owners' flights; ``values``."""
        for flight, indices in self.waits.items():
            published = flight.result(timeout)
            for i in indices:
                self.values[i] = published[self.cell(i)]
        return self.values


class EvaluationCache:
    """Thread-safe, single-flight evaluation memo with hit/miss accounting.

    ``misses`` counts every cell a lookup did not find stored, including
    cells another request was pricing (those also count in
    ``coalesced``). ``dedup`` counts stores over an existing cell, which
    only a :meth:`put` racing an owner can cause.
    """

    def __init__(self):
        self._lock = threading.Lock()
        #: (prefix id, config hash) -> Evaluation, least recently used first
        self._entries: OrderedDict = OrderedDict()
        #: (prefix id, config hash) -> the owning request's Flight
        self._inflight: dict = {}
        #: prefix -> id, and id -> [prefix, stored + in-flight cells]
        self._ids: dict = {}
        self._prefixes: dict = {}
        self._next_id = 0
        self.hits = 0
        self.misses = 0
        self.dedup = 0
        self.coalesced = 0

    # -- interning (callers hold the lock) ------------------------------
    def _intern(self, prefix: tuple) -> int:
        pid = self._ids.get(prefix)
        if pid is None:
            pid = self._next_id
            self._next_id += 1
            self._ids[prefix] = pid
            self._prefixes[pid] = [prefix, 0]
        return pid

    def _release(self, pid: int, n: int = 1) -> None:
        """Drop ``n`` cells' hold on a prefix; forget it at zero."""
        slot = self._prefixes[pid]
        slot[1] -= n
        if slot[1] <= 0:
            del self._prefixes[pid]
            del self._ids[slot[0]]

    def _store(self, cell: tuple, evaluation: Evaluation) -> None:
        if cell in self._entries:
            self.dedup += 1
            self._entries.move_to_end(cell)
        else:
            self._prefixes[cell[0]][1] += 1
        self._entries[cell] = evaluation

    def _trim(self) -> None:
        """Hook run under the lock after cells were stored (capacity)."""

    # -- request-level single flight ------------------------------------
    def acquire(self, prefixes, hashes) -> Claim:
        """Claim the ``hashes`` × ``prefixes`` matrix in one locked pass.

        Scans row-major — each config hash across every column prefix —
        so hits refresh recency in the same order a cell-by-cell scan
        would. A stored cell is a hit; a cell another request owns is
        waited on through its :class:`Flight`; every other cell becomes
        this request's, under one new :class:`Flight`.
        """
        hashes = list(hashes)
        entries = self._entries
        inflight = self._inflight
        with self._lock:
            claim = Claim([self._intern(p) for p in prefixes], hashes)
            values, owned, waits = claim.values, claim.owned, claim.waits
            slots = [self._prefixes[pid] for pid in claim.pids]
            flight = None
            for h in hashes:
                for pid, slot in zip(claim.pids, slots):
                    cell = (pid, h)
                    ev = entries.get(cell)
                    if ev is not None:
                        entries.move_to_end(cell)
                    else:
                        other = inflight.get(cell)
                        if other is None:
                            if flight is None:
                                flight = claim.flight = Flight()
                            inflight[cell] = flight
                            slot[1] += 1
                            owned.append(len(values))
                        else:
                            waits.setdefault(other, []).append(len(values))
                    values.append(ev)
            waiting = claim.waiting
            self.misses += len(owned) + waiting
            self.hits += len(values) - len(owned) - waiting
            self.coalesced += waiting
            for pid, slot in zip(claim.pids, slots):
                # a prefix first interned by a claim without rows holds no cell
                if slot[1] == 0 and pid in self._prefixes:
                    self._release(pid, 0)
        return claim

    def fulfil(self, claim: Claim) -> None:
        """Publish the claim's owned cells, in claim order, from
        ``claim.values``, and wake every request waiting on them."""
        published = {}
        values = claim.values
        with self._lock:
            for i in claim.owned:
                cell = claim.cell(i)
                del self._inflight[cell]
                if cell in self._entries:
                    self._release(cell[0])  # a put() stored it meanwhile
                    self._store(cell, values[i])
                else:
                    self._entries[cell] = values[i]
                published[cell] = values[i]
            self._trim()
        if claim.flight is not None:
            claim.flight.set(published)

    def abandon(self, claim: Claim, error: BaseException) -> None:
        """Release the claim's owned cells after a failure; every request
        waiting on them re-raises."""
        with self._lock:
            for i in claim.owned:
                cell = claim.cell(i)
                del self._inflight[cell]
                self._release(cell[0])
        if claim.flight is not None:
            claim.flight.fail(error)

    # -- one cell by its full key ---------------------------------------
    def get(self, key: tuple) -> Evaluation | None:
        """The evaluation stored under a full :func:`evaluation_cache_key`."""
        with self._lock:
            pid = self._ids.get(key[:-1])
            ev = None if pid is None else self._entries.get((pid, key[-1]))
            if ev is None:
                self.misses += 1
            else:
                self.hits += 1
                self._entries.move_to_end((pid, key[-1]))
            return ev

    def put(self, key: tuple, evaluation: Evaluation) -> None:
        """Store one evaluation under a full :func:`evaluation_cache_key`."""
        with self._lock:
            self._store((self._intern(key[:-1]), key[-1]), evaluation)
            self._trim()

    def keys(self) -> list:
        """Every stored cell's full key, least recently used first."""
        with self._lock:
            return [
                (*self._prefixes[pid][0], h) for pid, h in self._entries
            ]

    def clear(self) -> None:
        with self._lock:
            for pid, _h in self._entries:
                self._release(pid)
            self._entries.clear()
            self._reset_counters()

    def _reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0
        self.dedup = 0
        self.coalesced = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            pid = self._ids.get(key[:-1])
            return pid is not None and (pid, key[-1]) in self._entries

    def stats(self) -> dict:
        """One consistent snapshot of entry count and counters.

        Taken under the lock so a concurrent lookup or store can never
        produce a torn read (e.g. a hit counted but its entry not yet
        visible).
        """
        with self._lock:
            return self._stats()

    def _stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "dedup": self.dedup,
            "coalesced": self.coalesced,
            "inflight": len(self._inflight),
            "prefixes": len(self._prefixes),
        }


#: Process-wide default cache shared by all planners.
GLOBAL_CACHE = EvaluationCache()
