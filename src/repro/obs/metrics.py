"""Metrics: counters, gauges and histograms in a swappable registry.

A :class:`MetricsRegistry` hands out get-or-create instruments keyed on
``(name, labels)`` — ``registry.counter("planner.cache.hits")``,
``registry.histogram("estimator.evaluate_seconds",
labels={"fidelity": "sim"})`` — and renders them as a flat JSON-ready
snapshot or a ``prometheus``-style text dump. Instruments are
thread-safe (a planning server answers concurrent requests on one
session registry).

The process-wide default is :data:`NULL_REGISTRY`, whose instruments
are shared no-op singletons: code may call
``OBS.metrics.counter(...).inc()`` unconditionally without paying more
than two cheap calls when observability is off. A real registry is
installed per :class:`~repro.api.Session` (always, so
``Session.metrics()`` works without tracing) or process-wide through
:func:`repro.obs.enable`.
"""

from __future__ import annotations

import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "escape_label_value",
    "render_label_key",
]


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Backslash, double-quote and newline are the three characters the
    format requires escaping inside ``k="v"``; anything else (including
    a scenario name like ``ring"straggler``) passes through. Escaping
    here — where the instrument key is built — keeps the key canonical
    *and* directly emittable, and makes raw-vs-escaped values that
    would collide into distinct instruments.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def render_label_key(name: str, labels: dict | None) -> str:
    """Canonical ``name{k="v",...}`` rendering (sorted keys, escaped values)."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{escape_label_value(labels[k])}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self.value += n

    def snapshot(self):
        return self.value


class Gauge:
    """Last-set value."""

    kind = "gauge"
    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, v: float) -> None:
        with self._lock:
            self.value = v

    def snapshot(self):
        return self.value


class Histogram:
    """Observation distribution with exact quantiles.

    Keeps every observation (planner runs observe hundreds of values,
    not millions), so :meth:`percentile` is exact — the p50/p99 latency
    numbers the ROADMAP's planning-as-a-service phase benchmarks.
    """

    kind = "histogram"
    __slots__ = ("name", "values", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.values: list[float] = []
        self._lock = threading.Lock()

    def observe(self, v: float) -> None:
        with self._lock:
            self.values.append(v)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return sum(self.values)

    def percentile(self, p: float) -> float:
        """Exact percentile by nearest-rank (``p`` in [0, 100])."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        with self._lock:
            if not self.values:
                return 0.0
            ordered = sorted(self.values)
        rank = max(0, min(len(ordered) - 1, round(p / 100.0 * (len(ordered) - 1))))
        return ordered[rank]

    def snapshot(self) -> dict:
        with self._lock:
            vals = list(self.values)
        if not vals:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "p50": 0.0, "p99": 0.0}
        return {
            "count": len(vals),
            "sum": sum(vals),
            "min": min(vals),
            "max": max(vals),
            "mean": sum(vals) / len(vals),
            "p50": self.percentile(50),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Get-or-create instrument store keyed on ``(name, labels)``."""

    enabled = True

    def __init__(self):
        self._instruments: dict[str, object] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _get(self, cls, name: str, labels: dict | None):
        key = render_label_key(name, labels)
        with self._lock:
            inst = self._instruments.get(key)
            if inst is None:
                inst = self._instruments[key] = cls(key)
            elif not isinstance(inst, cls):
                raise ValueError(
                    f"metric {key!r} already registered as {inst.kind}, "
                    f"not {cls.kind}"
                )
        return inst

    def counter(self, name: str, labels: dict | None = None) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, labels: dict | None = None) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, labels: dict | None = None) -> Histogram:
        return self._get(Histogram, name, labels)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Flat JSON-ready mapping of every instrument, sorted by name."""
        with self._lock:
            items = sorted(self._instruments.items())
        return {name: inst.snapshot() for name, inst in items}

    def render_prometheus(self) -> str:
        """Prometheus-style text exposition of the current state.

        Counters/gauges emit one sample each; histograms emit
        ``_count``/``_sum`` plus quantile samples — enough for a human
        or a scraper, without claiming full exposition-format fidelity.
        """
        lines: list[str] = []
        with self._lock:
            items = sorted(self._instruments.items())
        for name, inst in items:
            if inst.kind == "histogram":
                s = inst.snapshot()
                base, labels = _split_labels(name)
                lines.append(f"{base}_count{labels} {s['count']}")
                lines.append(f"{base}_sum{labels} {_fmt(s['sum'])}")
                for q in ("p50", "p99"):
                    qlabels = _merge_label(labels, "quantile", q[1:])
                    lines.append(f"{base}{qlabels} {_fmt(s[q])}")
            else:
                lines.append(f"{name} {_fmt(inst.snapshot())}")
        return "\n".join(lines) + ("\n" if lines else "")

    def clear(self) -> None:
        with self._lock:
            self._instruments.clear()

    def __len__(self) -> int:
        return len(self._instruments)


def _split_labels(key: str) -> tuple[str, str]:
    i = key.find("{")
    return (key, "") if i < 0 else (key[:i], key[i:])


def _merge_label(labels: str, k: str, v: str) -> str:
    extra = f'{k}="{v}"'
    if not labels:
        return f"{{{extra}}}"
    return labels[:-1] + "," + extra + "}"


def _fmt(v) -> str:
    if isinstance(v, float) and v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v) if not isinstance(v, float) else f"{v:.9g}"


class _NullInstrument:
    """Shared no-op counter/gauge/histogram."""

    kind = "null"
    __slots__ = ()
    value = 0
    values: tuple = ()
    count = 0
    total = 0.0

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, v: float) -> None:
        pass

    def observe(self, v: float) -> None:
        pass

    def percentile(self, p: float) -> float:
        return 0.0

    def snapshot(self):
        return 0


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The disabled default: hands out shared no-op instruments."""

    enabled = False

    def counter(self, name: str, labels: dict | None = None):
        return _NULL_INSTRUMENT

    def gauge(self, name: str, labels: dict | None = None):
        return _NULL_INSTRUMENT

    def histogram(self, name: str, labels: dict | None = None):
        return _NULL_INSTRUMENT

    def snapshot(self) -> dict:
        return {}

    def render_prometheus(self) -> str:
        return ""

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


#: the process-wide disabled default
NULL_REGISTRY = NullRegistry()
