"""The process-wide evaluation store behind the planning server.

:class:`PersistentEvaluationStore` extends
:class:`~repro.autotune.cache.EvaluationCache` — interned cell keys and
request-level single flight (:meth:`~EvaluationCache.acquire` /
:meth:`~EvaluationCache.fulfil` / :meth:`~EvaluationCache.abandon`, with
:class:`~repro.autotune.cache.Flight` as the hand-off) — with the two
properties a long-lived, shared service needs and a per-process memo
does not:

* **Bounded capacity with LRU eviction** — cells are kept in recency
  order (every hit refreshes); once ``max_entries`` is exceeded the
  least-recently-used evaluation is dropped and counted in
  ``evictions``, and a key prefix is forgotten with its last cell.
* **Disk persistence + warm-start** — :meth:`save` writes an atomic
  JSON-lines snapshot (versioned header line, one ``{key, evaluation}``
  record per line with the full key tuple, ``os.replace`` so readers
  never see a torn file); :meth:`load` warm-starts a fresh process from
  it, decoding each distinct key prefix once. A file that fails the
  header or any record check is *quarantined* (renamed to
  ``<path>.corrupt-<n>``) instead of crashing the server — the valid
  prefix is kept.

Cache keys (see :func:`~repro.autotune.cache.evaluation_cache_key`) are
tuples over strings, numbers, ``None``, the frozen
:class:`~repro.cluster.calibration.SummitCalibration` and
:class:`~repro.parallel.scenarios.ClusterScenario` value objects —
:func:`encode_key`/:func:`decode_key` round-trip them through JSON such
that a decoded key compares (and hashes) equal to a freshly computed
one, which is what makes warm-start serve the same answers.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import tempfile

from ..autotune.cache import EvaluationCache, Flight
from ..autotune.config import CandidateConfig
from ..autotune.estimator import Evaluation
from ..cluster.calibration import SummitCalibration
from ..parallel.perf_model import BatchBreakdown, ParallelConfig
from ..parallel.scenarios import ClusterScenario

__all__ = [
    "STORE_FORMAT",
    "STORE_VERSION",
    "encode_key",
    "decode_key",
    "Flight",
    "PersistentEvaluationStore",
]

#: magic + schema version of the snapshot header line
STORE_FORMAT = "repro-eval-store"
STORE_VERSION = 1


# ---------------------------------------------------------------------------
# key codec
# ---------------------------------------------------------------------------

def encode_key(obj):
    """JSON-encodable form of one cache-key element (or a whole key).

    Tuples, calibrations and scenarios are tagged so :func:`decode_key`
    can rebuild value-equal objects; scalars pass through (JSON floats
    round-trip exactly, so decoded keys hash identically).
    """
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    if isinstance(obj, tuple):
        return {"__tuple__": [encode_key(x) for x in obj]}
    if isinstance(obj, SummitCalibration):
        return {
            "__calibration__": {
                f: getattr(obj, f) for f in obj.__dataclass_fields__
            }
        }
    if isinstance(obj, ClusterScenario):
        return {"__scenario__": obj.to_dict()}
    raise TypeError(f"cannot encode cache-key element of type {type(obj).__name__}")


def decode_key(data):
    """Inverse of :func:`encode_key`."""
    if isinstance(data, dict):
        if "__tuple__" in data:
            return tuple(decode_key(x) for x in data["__tuple__"])
        if "__calibration__" in data:
            return SummitCalibration(**data["__calibration__"])
        if "__scenario__" in data:
            return ClusterScenario.from_dict(data["__scenario__"])
        raise ValueError(f"unknown key tag {sorted(data)!r}")
    return data


_SCALARS = frozenset((str, int, float, bool, type(None)))


def _frozen(data):
    """A hashable stand-in for decoded JSON: lists -> tuples, dicts ->
    item tuples (the memo key of one encoded key prefix)."""
    if data.__class__ is list:
        return tuple([x if x.__class__ in _SCALARS else _frozen(x) for x in data])
    if data.__class__ is dict:
        return tuple(
            [(k, v if v.__class__ in _SCALARS else _frozen(v)) for k, v in data.items()]
        )
    return data


def _cell_decoder():
    """``Evaluation.from_dict`` for one snapshot's records, sharing what
    repeats across cells while decoding: one CandidateConfig per config
    hash (and exact sparsity, which the hash rounds), one ParallelConfig
    per value and one copy of each repeated string."""
    configs, pcfgs, intern = {}, {}, sys.intern

    def decode(config_hash: str, data: dict) -> Evaluation:
        c, b = data["config"], dict(data["breakdown"])
        key = (config_hash, c["sparsity"])
        config = configs.get(key) or configs.setdefault(key, CandidateConfig.from_dict(c))
        shape = tuple(b["config"].items())
        b["config"] = pcfgs.get(shape) or pcfgs.setdefault(shape, ParallelConfig(**b["config"]))
        b.pop("total", None)  # derived
        b["framework"], b["model"] = intern(b["framework"]), intern(b["model"])
        b["notes"] = {intern(k): intern(v) if v.__class__ is str else v
                      for k, v in b["notes"].items()}
        return Evaluation(config, BatchBreakdown(**b), data["memory_bytes"], data["feasible"],
                          data["batch_size"], intern(data["fidelity"]))

    return decode


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------

class PersistentEvaluationStore(EvaluationCache):
    """Shared evaluation store: LRU bounds and persistence.

    Drop-in for any :class:`~repro.api.Session` ``cache=``.
    ``max_entries=0`` means unbounded. ``autosave_every=N`` snapshots to
    ``path`` once N cells were stored since the last snapshot (checked
    after each request's publish; 0 disables; :meth:`save` is always
    available explicitly).
    """

    def __init__(
        self,
        path: str | os.PathLike | None = None,
        max_entries: int = 0,
        autosave_every: int = 0,
    ):
        super().__init__()
        if max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        if autosave_every < 0:
            raise ValueError(f"autosave_every must be >= 0, got {autosave_every}")
        self.path = os.fspath(path) if path is not None else None
        self.max_entries = max_entries
        self.autosave_every = autosave_every
        self.evictions = 0
        #: entries warm-started from disk by the last :meth:`load`
        self.loaded = 0
        #: where a corrupt snapshot was moved, if one was quarantined
        self.quarantined: str | None = None
        self._stored_since_save = 0

    # -- capacity ---------------------------------------------------------
    def _trim(self) -> None:
        if self.max_entries:
            entries = self._entries
            while len(entries) > self.max_entries:
                (pid, _h), _ev = entries.popitem(last=False)
                self._release(pid)
                self.evictions += 1

    def _reset_counters(self) -> None:
        super()._reset_counters()
        self.evictions = 0

    def _stats(self) -> dict:
        return {
            **super()._stats(),
            "max_entries": self.max_entries,
            "evictions": self.evictions,
            "loaded": self.loaded,
        }

    # -- autosave -----------------------------------------------------------
    def fulfil(self, claim) -> None:
        super().fulfil(claim)
        self._count_stored(len(claim.owned))

    def put(self, key: tuple, evaluation: Evaluation) -> None:
        super().put(key, evaluation)
        self._count_stored(1)

    def _count_stored(self, n: int) -> None:
        if self.path is None or not self.autosave_every:
            return
        with self._lock:
            self._stored_since_save += n
            due = self._stored_since_save >= self.autosave_every
            if due:
                self._stored_since_save = 0
        if due:
            self.save()

    # -- persistence ----------------------------------------------------
    def save(self, path: str | os.PathLike | None = None) -> int:
        """Atomic JSON-lines snapshot; returns the entry count written.

        Each cell is written under its full key tuple, least recently
        used first. Written to a temporary file in the target directory
        and ``os.replace``d into place, so a concurrent :meth:`load` (or
        a kill mid-save) sees either the old snapshot or the new one,
        never a torn file.
        """
        path = os.fspath(path) if path is not None else self.path
        if path is None:
            raise ValueError("no snapshot path: pass one or construct with path=")
        with self._lock:
            cells = list(self._entries.items())
            prefixes = {
                pid: [encode_key(x) for x in self._prefixes[pid][0]]
                for pid in {pid for (pid, _h), _ev in cells}
            }
        header = {"format": STORE_FORMAT, "version": STORE_VERSION, "entries": len(cells)}
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(prefix=".eval-store-", dir=directory)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(header) + "\n")
                for (pid, h), ev in cells:
                    key = {"__tuple__": [*prefixes[pid], encode_key(h)]}
                    fh.write(json.dumps({"key": key, "evaluation": ev.to_dict()}) + "\n")
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        return len(cells)

    def load(self, path: str | os.PathLike | None = None) -> int:
        """Warm-start from a snapshot; returns the entry count loaded.

        A missing file loads nothing (a fresh server starts cold). A
        corrupt file — wrong magic, unsupported version, or a malformed
        record — is quarantined by renaming it next to the snapshot
        (``<path>.corrupt-<n>``) and the valid prefix is kept, so a
        crash mid-save or a hand-edited file can never take the server
        down with it. Each distinct key prefix is decoded once, so the
        loaded cells of one workload share one calibration object, and
        cells share their configs and repeated strings (see
        :func:`_cell_decoder`).
        """
        path = os.fspath(path) if path is not None else self.path
        if path is None:
            raise ValueError("no snapshot path: pass one or construct with path=")
        if not os.path.exists(path):
            return 0
        loaded: list[tuple[tuple, object, Evaluation]] = []
        decoded: dict = {}
        decode_cell = _cell_decoder()
        corrupt: str | None = None
        with open(path) as fh:
            try:
                header = json.loads(fh.readline())
                if not (
                    isinstance(header, dict)
                    and header.get("format") == STORE_FORMAT
                    and header.get("version") == STORE_VERSION
                ):
                    raise ValueError(f"unrecognised snapshot header: {header!r}")
                for line in fh:
                    if not line.strip():
                        continue
                    record = json.loads(line)
                    parts = record["key"]["__tuple__"]
                    memo = _frozen(parts[:-1])
                    prefix = decoded.get(memo)
                    if prefix is None:
                        prefix = decoded[memo] = tuple(decode_key(x) for x in parts[:-1])
                    h = decode_key(parts[-1])
                    loaded.append((prefix, h, decode_cell(h, record["evaluation"])))
            except (ValueError, KeyError, TypeError, IndexError, AttributeError) as err:
                corrupt = str(err)
        if corrupt is not None:
            self.quarantined = self._quarantine(path)
        with self._lock:
            for prefix, h, ev in loaded:
                self._store((self._intern(prefix), h), ev)
                self._trim()
            self.loaded = len(loaded)
        return len(loaded)

    @staticmethod
    def _quarantine(path: str) -> str:
        n = 0
        while True:
            target = f"{path}.corrupt-{n}"
            if not os.path.exists(target):
                try:
                    os.replace(path, target)
                except OSError:
                    return path  # unmovable: leave it; we already start cold
                return target
            n += 1
