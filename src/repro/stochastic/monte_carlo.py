"""Monte-Carlo robust planning: price candidates on sampled timelines.

``Session.mc_robust_plan`` draws N :class:`ScenarioTimeline`\\ s from a
:class:`~repro.stochastic.process.ScenarioProcess` and prices every
candidate configuration on every draw. The trick that keeps this cheap:
a timeline's :meth:`exposure` is a weighted mixture over the process's
few distinct scenarios, so the per-sample cost is just

    cost(config, sample) = Σ_scenario  w(sample, scenario) · time(config, scenario)

— one (candidate × scenario) matrix priced once (through the same
evaluation cache and, when every scenario is collective-only, one
``analytic-batch`` ``evaluate_batch`` call), then an exposure-matrix
product per sample. N=1000 samples cost the same evaluations as N=1.

**Common random numbers** (``crn=True``, the default): every candidate
is priced on the *same* sampled timelines, so per-sample cost
differences between two candidates are paired — the difference
estimator's variance drops by the (typically large) common component of
the per-sample noise. ``crn=False`` draws independent timelines per
candidate instead; ``benchmarks/bench_mc_plan.py`` measures the ratio.

**CI semantics**: per candidate, ``mean_time ± ci95`` is the normal
95% interval ``1.96·s/√N`` on the mean per-sample cost. Ranking is by
mean; :meth:`MCRobustResult.leaders` re-tests each runner-up against
the winner with the *paired-difference* interval (the CRN payoff) and
flags the statistically indistinguishable ones.

A degenerate process (no kind can fire) reproduces
:meth:`Session.plan` bit-identically: the single neutral column is
priced with the same ``analytic`` fidelity and cache keys, and the mean
is taken as the column itself — no float round-trip through averaging.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..autotune.result import RowResult, entry_dict
from ..obs import OBS
from .process import ScenarioProcess, get_process

__all__ = ["MCCandidate", "MCRobustResult", "ExposureMemo", "run_mc_robust_plan"]

#: normal 97.5% quantile — the half-width multiplier of a 95% interval
Z95 = 1.96


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MCCandidate:
    """One candidate costed across all sampled timelines."""

    config: object
    #: mean per-sample batch time (== plan()'s time under a degenerate process)
    mean_time: float
    #: sample standard deviation (ddof=1; 0 for a single sample)
    std_time: float
    #: 95% half-width on the mean: 1.96·std/√N
    ci95: float
    #: slowest sampled cost and which draw caused it
    worst_time: float
    worst_sample: int
    #: scenario label -> batch time (the priced matrix row)
    per_scenario: dict
    #: per-sample costs, in draw order — what the CI math runs on
    sample_costs: tuple
    memory_bytes: int
    feasible: bool
    batch_size: int

    #: every field and how it is written, in to_dict() order (the planning
    #: server writes Monte-Carlo answers by it too)
    LAYOUT = (
        ("config", "config"), ("mean_time", "float"), ("std_time", "float"),
        ("ci95", "float"), ("worst_time", "float"), ("worst_sample", "int"),
        ("per_scenario", "by_label"), ("sample_costs", "floats"),
        ("memory_bytes", "int"), ("feasible", "bool"), ("batch_size", "int"),
    )

    @property
    def expected_throughput(self) -> float:
        return self.batch_size / self.mean_time

    def as_row(self) -> dict:
        return {
            "framework": self.config.framework,
            "G_t": self.config.g_tensor,
            "G_i": self.config.g_inter,
            "G_d": self.config.g_data,
            "mbs": self.config.mbs,
            "E[time] (s)": round(self.mean_time, 3),
            "±95% (s)": round(self.ci95, 3),
            "worst (s)": round(self.worst_time, 3),
            "E[tput] (smp/s)": round(self.expected_throughput, 1),
            "mem/GPU (GB)": round(self.memory_bytes / 1e9, 2),
        }

    def to_dict(self) -> dict:
        return entry_dict(self)


@dataclass(eq=False)
class MCRobustResult(RowResult):
    """Outcome of one Monte-Carlo robust search, kept as arrays over the
    priced (candidates × scenarios) matrix and its (candidates × samples)
    cost matrix."""

    model: str
    n_gpus: int
    fidelity: str
    budget_bytes: int
    process: ScenarioProcess
    samples: int
    seed: int
    crn: bool
    #: the scenario columns' labels, neutral first
    labels: tuple
    #: row r of every array below is candidate r, read from its cell in
    #: the neutral column (config, memory and global batch size)
    configs: tuple
    memory: tuple
    batch: tuple
    #: (candidates × scenarios) batch times, columns in label order
    times: np.ndarray
    #: (candidates × samples) per-sample costs, in draw order
    costs: np.ndarray
    #: per-candidate mean, sample std (ddof=1) and 95% half-width
    mean: np.ndarray
    std: np.ndarray
    ci95: np.ndarray
    #: index of each row's slowest sample
    worst: np.ndarray
    #: whether the candidate fits in memory under every scenario
    fits: np.ndarray
    #: accounting (scenarios, candidates, evaluated, cache_hits, samples,
    #: wall_seconds); wall time stays out of to_dict so same-seed runs
    #: serialize byte-identically
    stats: dict = field(default_factory=dict)

    ENTRY = MCCandidate
    KEY = "mean"

    def columns(self, rows, skip=()) -> dict:
        rows = list(rows)
        costs, worst = self.costs[rows], self.worst[rows]
        cols = {
            "config": [self.configs[r] for r in rows],
            "mean_time": self.mean[rows].tolist(),
            "std_time": self.std[rows].tolist(),
            "ci95": self.ci95[rows].tolist(),
            "worst_time": costs[np.arange(len(rows)), worst].tolist(),
            "worst_sample": worst.tolist(),
            "per_scenario": self.times[rows].tolist(),
            "memory_bytes": [self.memory[r] for r in rows],
            "feasible": self.fits[rows].tolist(),
            "batch_size": [self.batch[r] for r in rows],
        }
        if "sample_costs" not in skip:
            cols["sample_costs"] = costs.tolist()
        return cols

    def _numbers(self) -> tuple:
        return (self.times, self.costs, self.mean, self.std, self.ci95)

    @property
    def best(self) -> MCCandidate:
        ranked = self.ranking
        if not ranked:
            raise RuntimeError(
                f"{self.model} on {self.n_gpus} GPUs: no feasible configuration"
            )
        return self.entries[ranked[0]]

    def leaders(self) -> list:
        """The winner plus every candidate statistically tied with it.

        A runner-up is tied when the paired per-sample difference
        against the winner has ``mean(d) <= 1.96·std(d)/√N`` — under
        CRN the pairing shares the sampled timelines, which is what
        makes this test sharp.
        """
        entries = self.entries
        return [entries[r] for r in self.leader_rows()]

    def leader_rows(self) -> list:
        """:meth:`leaders` as rows: one (runner-ups × samples) difference
        matrix over the ranked feasible rows, reduced row-wise."""
        ranked = self.ranking
        if not ranked:
            return []
        costs = self.costs[ranked]
        d, n = costs[1:] - costs[0], costs.shape[1]
        half = Z95 * d.std(axis=1, ddof=1) / math.sqrt(n) if n > 1 else np.zeros(len(d))
        tied = (d.mean(axis=1) <= half).tolist()
        return [ranked[0]] + [r for r, t in zip(ranked[1:], tied) if t]

    # ------------------------------------------------------------------
    def summary_table(self, top: int = 8) -> str:
        from ..reporting.tables import render_table

        ranked = self.feasible
        if not ranked:
            return "(no feasible configurations)"
        tied = {id(e) for e in self.leaders()}
        rows = []
        for e in ranked[:top]:
            row = e.as_row()
            row["tied"] = "=" if id(e) in tied else ""
            rows.append(row)
        return render_table(
            rows,
            title=(
                f"MC robust plan: {self.model} on {self.n_gpus} GPUs over "
                f"process '{self.process.name}' "
                f"({self.samples} samples, seed {self.seed}, "
                f"CRN {'on' if self.crn else 'off'})"
            ),
        )

    def report(self, top: int = 8) -> str:
        from ..reporting.tables import format_bytes

        try:
            best = self.best
        except RuntimeError as err:
            return str(err)
        leaders = self.leaders()
        parts = [
            f"Best mean-cost config for {self.model} on {self.n_gpus} GPUs "
            f"over process '{self.process.name}': {best.config.describe()}\n"
            f"  E[batch time] {best.mean_time:.3f} ± {best.ci95:.3f} s "
            f"(95% CI over {self.samples} samples; "
            f"worst draw {best.worst_time:.3f} s), "
            f"E[throughput] {best.expected_throughput:.0f} samples/s, "
            f"memory {format_bytes(best.memory_bytes)}/GPU",
        ]
        if len(leaders) > 1:
            descs = ", ".join(e.config.describe() for e in leaders[1:])
            parts.append(
                f"{len(leaders)} statistically indistinguishable leaders "
                f"at 95% (paired difference vs the winner): {descs}"
            )
        parts.append(self.summary_table(top=top))
        return "\n\n".join(parts)

    def layout(self, rows, drop=()) -> dict:
        """:meth:`to_dict`'s fields (byte-identical across same-seed
        runs), the entries written by ``rows`` as in :class:`RowResult`."""
        best = self.ranking[:1]
        return {
            "model": self.model,
            "n_gpus": self.n_gpus,
            "fidelity": self.fidelity,
            "budget_bytes": self.budget_bytes,
            "process": self.process.to_dict(),
            "samples": self.samples,
            "seed": self.seed,
            "crn": self.crn,
            "labels": list(self.labels),
            "best": rows(best)[0] if best else None,
            "leaders": [self.configs[r].to_dict() for r in self.leader_rows()],
            "entries": rows(range(len(self.configs)), drop),
            "stats": {k: v for k, v in self.stats.items() if k != "wall_seconds"},
        }


# ---------------------------------------------------------------------------
# the driver (called by Session.mc_robust_plan inside its _op scope)
# ---------------------------------------------------------------------------

def _columns_for(process: ScenarioProcess) -> tuple[list, list]:
    """The scenario columns a process can ever expose, labels first.

    Deterministic — derived from the kinds, not the draws — so cache
    keys and candidate × scenario matrices are stable across sample
    counts and seeds. Kinds that can never fire (rate ceiling 0)
    contribute nothing; a process with none left is degenerate and
    prices exactly like :meth:`Session.plan`.
    """
    labels, columns, seen = ["neutral"], [None], set()
    for kind in process.kinds:
        if kind.rate.ceiling(process.horizon) <= 0.0 or kind.scenario is None:
            continue
        if kind.scenario.name in seen:
            continue
        seen.add(kind.scenario.name)
        labels.append(kind.scenario.name)
        columns.append(kind.scenario)
    return labels, columns


def _exposure_matrix(
    timelines: tuple, labels: list, horizon: float
) -> np.ndarray:
    """(n_samples × n_columns) time-weight matrix; rows sum to 1."""
    index = {label: j for j, label in enumerate(labels)}
    W = np.zeros((len(timelines), len(labels)))
    for i, timeline in enumerate(timelines):
        for scenario, w in timeline.exposure():
            W[i, index[scenario.name if scenario is not None else "neutral"]] = w
    return W


class ExposureMemo:
    """Bounded LRU of sampled exposure rows, keyed by (process, seed).

    Sample ``i`` of :meth:`ScenarioProcess.sample_timelines` is the same
    for every ``n`` (the SeedSequence prefix property of
    :func:`repro.rng.spawn_generators`), so the first ``n`` rows of a
    larger draw *are* the rows of ``n`` samples: a request for no more
    samples than an entry holds reads its prefix, and only a larger one
    draws again (through ``sample_timelines``, replacing the entry). An
    entry keeps each sample's exposure row (columns as
    :func:`_columns_for` labels them, a function of the process) and
    each timeline's event count, nothing else.
    """

    #: bytes of rows and counts a full memo keeps at most; a draw larger
    #: than this is served but not kept
    MAX_BYTES = 2 << 20

    def __init__(self):
        self._entries: OrderedDict = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    @staticmethod
    def _size(entry: tuple) -> int:
        rows, events = entry
        return rows.nbytes + 8 * len(events)

    def rows(self, process: ScenarioProcess, labels: list, n: int, seed: int) -> tuple:
        """The first ``n`` samples' (``n`` × columns) exposure rows and
        event counts of ``process`` drawn from ``seed``."""
        key = (process, seed)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and len(entry[1]) >= n:
                self._entries.move_to_end(key)
                return entry[0][:n], entry[1][:n]
        timelines = process.sample_timelines(n, seed)
        rows = _exposure_matrix(timelines, labels, process.horizon)
        rows.flags.writeable = False
        entry = (rows, tuple(len(t.events) for t in timelines))
        size = self._size(entry)
        with self._lock:
            held = self._entries.get(key)
            # a racing request may have kept as many samples or more
            if size <= self.MAX_BYTES and (held is None or len(held[1]) < n):
                if held is not None:
                    self._bytes -= self._size(self._entries.pop(key))
                self._entries[key] = entry
                self._bytes += size
                while self._bytes > self.MAX_BYTES:
                    self._bytes -= self._size(self._entries.popitem(last=False)[1])
        return entry


def _independent_timelines(
    process: ScenarioProcess, n_candidates: int, samples: int, seed: int
) -> list:
    """Per-candidate independent draws (the no-CRN comparison arm)."""
    out = []
    for child in np.random.SeedSequence(seed).spawn(n_candidates):
        out.append(
            tuple(
                process.sample(np.random.default_rng(grandchild))
                for grandchild in child.spawn(samples)
            )
        )
    return out


def run_mc_robust_plan(
    session,
    job,
    process,
    *,
    samples: int = 32,
    seed: int = 0,
    crn: bool = True,
    frameworks: tuple,
    microbatch_sizes: tuple,
    explore_no_checkpoint: bool,
    spec,
) -> MCRobustResult:
    """The engine behind :meth:`Session.mc_robust_plan`.

    Runs inside the session's ``_op`` scope, so ``OBS.metrics`` is the
    session registry and spans land on the session tracer. The common
    timelines' exposure rows come from the session's
    :class:`ExposureMemo`.
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    t0 = time.perf_counter()
    process = get_process(process)
    labels, columns = _columns_for(process)
    degenerate = len(columns) == 1

    # one coherent fidelity for the whole matrix: pipeline-degrading
    # kinds need the event engine; collective-only kinds vectorize
    # through the batch array program; a degenerate process keeps
    # plan()'s default so the cache keys (and the ranking) coincide
    fidelity = job.fidelity
    if fidelity is None:
        needs_engine = (
            any(c is not None and c.degrades_pipeline for c in columns)
            or job.overlap
            or job.placement != "block"
        )
        if needs_engine:
            fidelity = "sim"
        elif degenerate:
            fidelity = "analytic"
        else:
            fidelity = "analytic-batch"
    job = job.with_(fidelity=fidelity)

    metrics = OBS.metrics
    metrics.counter("mc.samples").inc(samples)

    t_draw = time.perf_counter()
    exposure, events = session._exposures.rows(process, labels, samples, seed)
    events_hist = metrics.histogram("mc.timeline_events")
    for n_events in events:
        events_hist.observe(n_events)
    if OBS.enabled:
        OBS.tracer.record(
            "mc.sample_timelines", t_draw, time.perf_counter(),
            category="mc_robust_plan", samples=samples, seed=seed,
        )

    # -- price the candidate × scenario matrix once ---------------------
    per_label, times, fits = session._price_columns(
        job, spec, labels, columns,
        frameworks=frameworks,
        microbatch_sizes=microbatch_sizes,
        explore_no_checkpoint=explore_no_checkpoint,
    )

    first = per_label[labels[0]].evaluations

    # -- per-sample costs = priced matrix × exposure weights ------------
    n_candidates = len(first)
    if degenerate:
        # exact degeneration: every sample is the neutral machine, so
        # the mean IS the plan() column — no averaging round-trip
        costs = np.repeat(times[:, :1], samples, axis=1)
        mean_arr = times[:, 0]
        std_arr = np.zeros(n_candidates)
    else:
        if crn:
            costs = times @ exposure.T
        else:
            costs = np.empty((n_candidates, samples))
            per_candidate = _independent_timelines(
                process, n_candidates, samples, seed
            )
            for r in range(n_candidates):
                W = _exposure_matrix(per_candidate[r], labels, process.horizon)
                costs[r] = times[r] @ W.T
        mean_arr = costs.mean(axis=1)
        std_arr = (
            costs.std(axis=1, ddof=1) if samples > 1 else np.zeros(n_candidates)
        )

    result = MCRobustResult(
        model=spec.name,
        n_gpus=job.n_gpus,
        fidelity=fidelity,
        budget_bytes=session.machine.gpu_memory_bytes,
        process=process,
        samples=samples,
        seed=seed,
        crn=crn,
        labels=tuple(labels),
        configs=tuple(ev.config for ev in first),
        memory=tuple(ev.memory_bytes for ev in first),
        batch=tuple(ev.batch_size for ev in first),
        times=times,
        costs=costs,
        mean=mean_arr,
        std=std_arr,
        ci95=Z95 * std_arr / math.sqrt(samples),
        worst=np.argmax(costs, axis=1),
        fits=fits,
        stats={
            "scenarios": len(labels),
            "candidates": sum(r.stats.candidates for r in per_label.values()),
            "evaluated": sum(r.stats.evaluated for r in per_label.values()),
            "cache_hits": sum(r.stats.cache_hits for r in per_label.values()),
            "samples": samples,
            "wall_seconds": round(time.perf_counter() - t0, 4),
        },
    )
    if result.ranking:
        sample_hist = metrics.histogram("mc.sample_seconds")
        for c in costs[result.ranking[0]].tolist():
            sample_hist.observe(c)
    return result
