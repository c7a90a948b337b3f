"""`repro.obs` — span tracing, metrics, and trace export.

The runtime state is one process-wide :data:`OBS` holder with two
swappable halves:

* ``OBS.tracer`` — a :class:`Tracer` collecting timeline spans, or the
  no-op :data:`~repro.obs.tracer.NULL_TRACER` (the default);
* ``OBS.metrics`` — a :class:`MetricsRegistry`, or the no-op
  :data:`~repro.obs.metrics.NULL_REGISTRY` (the default).

Hot paths gate span emission on ``OBS.enabled`` — a single attribute
read when disabled, so every pre-existing golden number stays
byte-identical (``benchmarks/bench_obs_overhead.py`` pins the cost).
Metrics calls go through the null registry's shared no-op instruments
and need no gating.

Three ways to turn it on:

* :func:`enable` / :func:`disable` — process-wide, for scripts;
* :func:`observed` — a context manager that installs a tracer and/or
  registry and restores the previous state on exit (nestable);
  :class:`~repro.api.Session` installs its own registry around each
  operation and keeps it installed while any of its operations run;
* ``Session(trace_to="out.json")`` / ``repro trace --chrome out.json``
  — the high-level wiring.
"""

from __future__ import annotations

from contextlib import contextmanager

from .export import chrome_trace_events, validate_chrome_trace, write_chrome_trace
from .metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    render_label_key,
)
from .tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "OBS",
    "Observability",
    "enable",
    "disable",
    "observed",
    # tracer
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "render_label_key",
    # export
    "chrome_trace_events",
    "write_chrome_trace",
    "validate_chrome_trace",
]


class Observability:
    """Holder for the installed tracer + metrics registry.

    ``enabled`` mirrors ``tracer.enabled`` and is the one flag the
    virtual-time hot paths (event loop, pipeline simulator) check before
    doing any span bookkeeping. A metrics-only install (what every
    ``Session`` does) keeps ``enabled`` False: counters are cheap enough
    to leave ungated, span emission is not.
    """

    __slots__ = ("tracer", "metrics", "enabled")

    def __init__(self):
        self.tracer = NULL_TRACER
        self.metrics = NULL_REGISTRY
        self.enabled = False

    def install(self, tracer=None, metrics=None) -> tuple:
        """Swap in new halves; returns the previous ``(tracer, metrics)``."""
        prev = (self.tracer, self.metrics)
        if tracer is not None:
            self.tracer = tracer
            self.enabled = bool(getattr(tracer, "enabled", False))
        if metrics is not None:
            self.metrics = metrics
        return prev

    def restore(self, prev: tuple) -> None:
        tracer, metrics = prev
        self.tracer = tracer
        self.metrics = metrics
        self.enabled = bool(getattr(tracer, "enabled", False))

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"Observability({state}, {self.tracer!r}, {len(self.metrics)} metrics)"


#: the process-wide observability state (swappable, defaults to no-ops)
OBS = Observability()


def enable(tracer: Tracer | None = None, metrics: MetricsRegistry | None = None):
    """Install a real tracer + registry process-wide; returns ``(tracer, metrics)``."""
    tracer = tracer if tracer is not None else Tracer()
    metrics = metrics if metrics is not None else MetricsRegistry()
    OBS.install(tracer, metrics)
    return tracer, metrics


def disable() -> None:
    """Back to the no-op defaults."""
    OBS.install(NULL_TRACER, NULL_REGISTRY)


@contextmanager
def observed(tracer=None, metrics=None):
    """Install tracer/metrics for the duration of a block, then restore.

    Nestable — an inner block's exit restores the outer block's state,
    not the global default. Yields the :data:`OBS`
    holder so callers can read ``OBS.tracer`` / ``OBS.metrics`` inside.
    """
    prev = OBS.install(tracer, metrics)
    try:
        yield OBS
    finally:
        OBS.restore(prev)
