"""The one front door to every cost-model entry point.

``Session`` binds a :class:`~repro.api.Machine` to an evaluation cache
and answers every cost-model question:

* :meth:`Session.breakdown` — the Figure-8 phase breakdown of one
  :class:`~repro.api.Job`;
* :meth:`Session.trace` — the event-driven 1F1B schedule trace of the
  job's pipeline (warmup/drain, message waits, per-replica placement);
* :meth:`Session.plan` — search the hybrid-parallel configuration space,
  cache keys derived from the frozen Job/Machine value objects;
* :meth:`Session.robust_plan` — rank configurations by *expected* cost
  over a weighted :class:`~repro.api.ScenarioSet`, reporting worst-case
  cost alongside; evaluations are shared per (config, scenario) pair
  through the same cache, and a neutral-only set degenerates to
  :meth:`Session.plan` bit-identically;
* :meth:`Session.place` — optimize the data-parallel replica placement
  of the job's pipeline (never worse than the default block layout);
* :meth:`Session.mc_robust_plan` — Monte-Carlo robust ranking over a
  sampled failure process (:mod:`repro.stochastic`): N timelines,
  common random numbers across candidates, 95% confidence intervals;
* :meth:`Session.replan` — ride-vs-repair break-even pricing when a
  degradation arrives mid-job.

The job-level ``overlap``/``placement`` knobs thread through every
question: ``overlap=True`` prices the data-parallel all-reduce at its
event-timeline exposure behind the pipeline drain, and
``placement="best"`` prices the pipeline at the optimized replica
placement.

Every priced answer goes through one path: the question's candidates ×
scenario columns are claimed from the session cache as one request,
the misses are priced by the fidelity's registered estimator, and the
cells are published for every later question (:meth:`Session._claim`).
A breakdown is a one-cell request for the job's paper-protocol
candidate, so it is the same cell a plan of that workload prices.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..models.registry import get_spec
from ..models.spec import ModelSpec
from ..parallel.perf_model import BatchBreakdown, microbatches_per_gpu
from ..parallel.pipeline import PipelineTrace
from ..parallel.placement import PlacementResult, place_replicas
from ..parallel.scenarios import resolve_fidelity, simulate_hetero_pipeline
from ..autotune.cache import GLOBAL_CACHE, Claim, EvaluationCache, cache_key_prefix
from ..autotune.config import FRAMEWORKS, CandidateConfig, candidate_for_workload
from ..autotune.estimator import AnalyticEstimator, CostEstimator, make_estimator
from ..autotune.result import PlannerStats, PlanResult, RowResult, entry_dict
from ..autotune.space import CandidateMemo, SearchSpace
from ..obs import OBS, MetricsRegistry, Tracer, write_chrome_trace
from ..reporting.tables import format_bytes, render_table
from ..stochastic.monte_carlo import ExposureMemo, run_mc_robust_plan
from .job import Job
from .machine import Machine
from .scenario_set import ScenarioSet, get_scenario_set

__all__ = ["Session", "RobustEvaluation", "RobustPlanResult"]


# ---------------------------------------------------------------------------
# robust-planning results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RobustEvaluation:
    """One candidate costed across a whole scenario distribution."""

    config: CandidateConfig
    #: probability-weighted batch time over the set
    expected_time: float
    #: slowest batch time over the set, and the scenario that caused it
    worst_time: float
    worst_scenario: str
    #: scenario label -> batch time
    per_scenario: dict
    memory_bytes: int
    feasible: bool
    batch_size: int

    #: every field and how it is written, in to_dict() order (the planning
    #: server writes robust answers by it too)
    LAYOUT = (
        ("config", "config"), ("expected_time", "float"), ("worst_time", "float"),
        ("worst_scenario", "label"), ("per_scenario", "by_label"),
        ("memory_bytes", "int"), ("feasible", "bool"), ("batch_size", "int"),
    )

    @property
    def expected_throughput(self) -> float:
        return self.batch_size / self.expected_time

    def as_row(self) -> dict:
        return {
            "framework": self.config.framework,
            "G_t": self.config.g_tensor,
            "G_i": self.config.g_inter,
            "G_d": self.config.g_data,
            "mbs": self.config.mbs,
            "E[time] (s)": round(self.expected_time, 3),
            "worst (s)": round(self.worst_time, 3),
            "worst case": self.worst_scenario,
            "E[tput] (smp/s)": round(self.expected_throughput, 1),
            "mem/GPU (GB)": round(self.memory_bytes / 1e9, 2),
        }

    def to_dict(self) -> dict:
        return entry_dict(self)


@dataclass(eq=False)
class RobustPlanResult(RowResult):
    """Outcome of one robust search over a scenario distribution, kept as
    arrays over the priced (candidates × scenarios) matrix."""

    model: str
    n_gpus: int
    fidelity: str
    budget_bytes: int
    scenario_set: ScenarioSet
    #: row r of every array below is candidate r, read from its cell in
    #: the first scenario column (config, memory and global batch size)
    configs: tuple
    memory: tuple
    batch: tuple
    #: (candidates × scenarios) batch times, columns in label order
    times: np.ndarray
    #: probability-weighted time over the set
    expected: np.ndarray
    #: column index of each row's slowest scenario
    worst: np.ndarray
    #: whether the candidate fits in memory under every scenario
    fits: np.ndarray
    #: scenario label -> the per-scenario :class:`PlanResult`
    per_scenario: dict = field(default_factory=dict)
    #: accounting aggregated over the per-scenario searches (scenarios,
    #: candidates, evaluated, cache_hits, wall_seconds)
    stats: dict = field(default_factory=dict)

    ENTRY = RobustEvaluation
    KEY = "expected"

    @property
    def labels(self) -> tuple:
        return self.scenario_set.labels()

    def columns(self, rows, skip=()) -> dict:
        rows = list(rows)
        times, worst = self.times[rows], self.worst[rows]
        labels = self.labels
        return {
            "config": [self.configs[r] for r in rows],
            "expected_time": self.expected[rows].tolist(),
            "worst_time": times[np.arange(len(rows)), worst].tolist(),
            "worst_scenario": [labels[j] for j in worst.tolist()],
            "per_scenario": times.tolist(),
            "memory_bytes": [self.memory[r] for r in rows],
            "feasible": self.fits[rows].tolist(),
            "batch_size": [self.batch[r] for r in rows],
        }

    def _numbers(self) -> tuple:
        return (self.times, self.expected)

    @property
    def best(self) -> RobustEvaluation:
        """Best expected-cost feasible configuration."""
        ranked = self.ranking
        if not ranked:
            raise RuntimeError(
                f"{self.model} on {self.n_gpus} GPUs: no feasible configuration "
                f"within {format_bytes(self.budget_bytes)} per GPU"
            )
        return self.entries[ranked[0]]

    def best_worst_case(self) -> RobustEvaluation:
        """The minimax pick: smallest worst-case time over the set."""
        worst = self.times[np.arange(len(self.configs)), self.worst]
        ranked = self._ranked(worst)
        if not ranked:
            raise RuntimeError("no feasible configuration")
        return self.entries[ranked[0]]

    # ------------------------------------------------------------------
    def summary_table(self, top: int = 8) -> str:
        rows = [e.as_row() for e in self.feasible[:top]]
        if not rows:
            return "(no feasible configurations)"
        weights = ", ".join(
            f"{label}={w:.2f}"
            for label, w in zip(self.scenario_set.labels(), self.scenario_set.weights)
        )
        return render_table(
            rows,
            title=(
                f"Robust plan: {self.model} on {self.n_gpus} GPUs over "
                f"'{self.scenario_set.name}' ({weights})"
            ),
        )

    def report(self, top: int = 8) -> str:
        """Full human-readable robust-plan report (what the CLI prints)."""
        try:
            best = self.best
        except RuntimeError as err:
            return str(err)
        parts = [
            f"Best expected config for {self.model} on {self.n_gpus} GPUs "
            f"over scenario set '{self.scenario_set.name}': "
            f"{best.config.describe()}\n"
            f"  E[batch time] {best.expected_time:.2f} s "
            f"(worst {best.worst_time:.2f} s under '{best.worst_scenario}'), "
            f"E[throughput] {best.expected_throughput:.0f} samples/s, "
            f"memory {format_bytes(best.memory_bytes)}/GPU",
            self.summary_table(top=top),
        ]
        minimax = self.best_worst_case()
        if minimax.config != best.config:
            parts.append(
                f"Minimax (best worst-case) pick differs: "
                f"{minimax.config.describe()} — worst {minimax.worst_time:.2f} s "
                f"vs {best.worst_time:.2f} s for the expected-cost winner."
            )
        return "\n\n".join(parts)

    def layout(self, rows, drop=()) -> dict:
        best = self.ranking[:1]
        return {
            "model": self.model,
            "n_gpus": self.n_gpus,
            "fidelity": self.fidelity,
            "budget_bytes": self.budget_bytes,
            "scenario_set": self.scenario_set.to_dict(),
            "best": rows(best)[0] if best else None,
            "entries": rows(range(len(self.configs)), drop),
            "stats": dict(self.stats),
        }


# ---------------------------------------------------------------------------
# the facade
# ---------------------------------------------------------------------------

class Session:
    """All cost-model entry points behind one object.

    A session owns a :class:`~repro.api.Machine` and an evaluation
    cache; every question asked through it reuses cached evaluations
    keyed on the frozen (machine, job-derived, config, scenario)
    identity.

    Every session also owns a :class:`~repro.obs.MetricsRegistry`: each
    operation runs with the session's registry installed in
    :data:`repro.obs.OBS`, so :meth:`metrics` answers cache hit-rates,
    per-fidelity call counts and wall-time latency histograms without
    any opt-in. Span tracing *is* opt-in — pass ``trace_to="out.json"``
    and every operation's virtual-time schedule (stages, links,
    allreduce buckets) plus wall-time session spans are flushed to a
    Chrome/Perfetto-loadable trace after each call.
    """

    def __init__(
        self,
        machine: Machine | None = None,
        cache: EvaluationCache | None = None,
        trace_to: str | None = None,
    ):
        self.machine = machine if machine is not None else Machine()
        self.cache = GLOBAL_CACHE if cache is None else cache
        self.trace_to = trace_to
        self.registry = MetricsRegistry()
        self.tracer: Tracer | None = Tracer() if trace_to else None
        # this Session's ops in flight, and the OBS state the first one
        # displaced (restored when the last one exits)
        self._obs_lock = threading.Lock()
        self._obs_active = 0
        self._obs_prev: tuple | None = None
        self._spaces = CandidateMemo()
        #: registered model name -> its resolved spec
        self._specs: dict[str, ModelSpec] = {}
        self._exposures = ExposureMemo()

    # -- observability ------------------------------------------------------
    def metrics(self) -> dict:
        """Flat JSON-ready snapshot of every session metric."""
        return self.registry.snapshot()

    def metrics_text(self) -> str:
        """Prometheus-style text rendering of the session metrics."""
        return self.registry.render_prometheus()

    @contextlib.contextmanager
    def _op(self, name: str):
        """Run one public operation under the session's observability.

        Installs the session registry (and tracer, when ``trace_to`` was
        given) into the process-wide :data:`~repro.obs.OBS`, times the
        operation into ``session.op_seconds{op=...}``, and flushes the
        accumulated spans to ``trace_to`` on exit. The install stays
        until the session's last op in flight exits, so concurrent ops
        (a planning server's requests) never uninstall the registry
        under one another; nested ops (``robust_plan`` re-entering
        through ``plan``) count as one more op in flight.
        """
        t0 = time.perf_counter()
        with self._obs_lock:
            if self._obs_active == 0:
                self._obs_prev = OBS.install(self.tracer, self.registry)
            self._obs_active += 1
        try:
            yield
        finally:
            self.registry.counter("session.ops", {"op": name}).inc()
            self.registry.histogram("session.op_seconds", {"op": name}).observe(
                time.perf_counter() - t0
            )
            if self.trace_to and self.tracer is not None:
                write_chrome_trace(self.trace_to, self.tracer.spans)
            with self._obs_lock:
                self._obs_active -= 1
                if self._obs_active == 0:
                    OBS.restore(self._obs_prev)
                    self._obs_prev = None

    # -- shared plumbing ----------------------------------------------------
    def _resolve_spec(self, job: Job, spec: ModelSpec | None) -> ModelSpec:
        """The job's registered model, or an explicit spec override
        (the escape hatch for unregistered specs).

        Each registered model is resolved once per session and shared by
        every later question, so a resolved spec is read-only. The memo
        holds at most one spec per registry name: an unknown name raises
        before anything is kept.
        """
        if spec is not None:
            return spec
        resolved = self._specs.get(job.model)
        if resolved is None:
            resolved = self._specs.setdefault(job.model, get_spec(job.model))
        return resolved

    # -- single-config questions -------------------------------------------
    def breakdown(
        self, job: Job, scenario=None, *, spec: ModelSpec | None = None
    ) -> BatchBreakdown:
        """Figure-8 phase breakdown of one training batch of ``job``.

        The job's paper-protocol candidate
        (:func:`~repro.autotune.config.candidate_for_workload`) priced by
        the job's estimator as a one-cell request through the session
        cache: a breakdown asked again, or after a plan of the same
        workload, is a cache hit.

        >>> from repro.api import Job, Machine, Session
        >>> b = Session(Machine.summit()).breakdown(
        ...     Job(model="gpt3-xl", n_gpus=64, framework="axonn+samo"))
        >>> (b.config.g_inter, b.config.g_data)
        (1, 64)
        >>> b.total == b.compute + b.p2p + b.bubble + b.collective + b.other
        True
        """
        spec = self._resolve_spec(job, spec)
        fidelity, scenario = resolve_fidelity(
            job.fidelity, scenario, overlap=job.overlap, placement=job.placement
        )
        with self._op("breakdown"):
            estimator = make_estimator(
                fidelity,
                spec,
                self.machine.cal,
                scenario=scenario,
                partition_mode=job.partition_mode,
                overlap=job.overlap,
                placement=job.placement,
            )
            config = self._candidate(job, spec)
            claim = self._claim(
                spec, [config], estimator, [getattr(estimator, "scenario", None)],
                job.partition_mode, (config.canonical_hash(),),
            )
            return claim.values[0].breakdown

    def _candidate(self, job: Job, spec: ModelSpec) -> CandidateConfig:
        return candidate_for_workload(
            spec, job.framework, job.n_gpus,
            sparsity=job.sparsity, mbs=job.mbs, cal=self.machine.cal,
        )

    def _pipeline(self, job: Job, spec: ModelSpec, what: str) -> dict:
        """The event-engine arguments of the job's paper-protocol
        pipeline, shared by :meth:`trace` and :meth:`place`."""
        if spec.family == "cnn":
            raise ValueError(
                f"{spec.name} runs pure data parallel (no pipeline to {what})"
            )
        cal = self.machine.cal
        config = self._candidate(job, spec)
        t_f, t_b = AnalyticEstimator(spec, cal)._stage_times(config)
        return dict(
            g_inter=config.g_inter,
            m=microbatches_per_gpu(spec.batch_size, config.g_data, config.mbs),
            mbs=job.mbs,
            t_f_model=t_f * config.g_inter,
            t_b_model=t_b * config.g_inter,
            n_gpus=job.n_gpus,
            cal=cal,
            blocking_sends=job.framework == "deepspeed-3d",
            partition_mode=job.partition_mode,
        )

    def trace(
        self, job: Job, scenario=None, *, spec: ModelSpec | None = None
    ) -> PipelineTrace:
        """Event-driven 1F1B schedule trace of the job's pipeline.

        Always runs the Figure-3 engine (a trace *is* the event-driven
        schedule); the job's fidelity only participates in the shared
        conflict validation, so an explicit ``analytic`` job with a
        scenario raises here like everywhere else.

        >>> from repro.api import Job, Machine, Session
        >>> t = Session(Machine.summit()).trace(
        ...     Job(model="gpt3-2.7b", n_gpus=16))
        >>> (t.g_inter, t.n_replicas)
        (8, 2)
        >>> t.makespan > 0 and t.mean_idle_time() > 0
        True
        """
        spec = self._resolve_spec(job, spec)
        fidelity, scenario = resolve_fidelity(
            job.fidelity, scenario, default="sim",
            overlap=job.overlap, placement=job.placement,
        )
        if fidelity not in ("analytic", "sim"):
            raise ValueError(
                f"unknown pipeline_fidelity {fidelity!r}; "
                "choose 'analytic' or 'sim'"
            )
        pipeline = self._pipeline(job, spec, "trace")
        with self._op("trace"):
            return simulate_hetero_pipeline(
                spec, scenario=scenario, placement=job.placement, **pipeline
            )

    def place(
        self,
        job: Job,
        scenario=None,
        *,
        spec: ModelSpec | None = None,
        swap_sweeps: int = 2,
    ) -> PlacementResult:
        """Optimize the replica placement of ``job``'s pipeline.

        Searches assignments of pipeline-stage ranks to data-parallel
        replicas (greedy node packing + local swaps over
        :meth:`Topology.replica_pipeline_ranks`-style chains), minimizing
        the slowest replica's chain time under ``scenario``. The result
        is **never worse than the default block layout** — when nothing
        beats it, the block layout is returned.

        >>> from repro.api import Job, Machine, Session
        >>> res = Session(Machine.summit()).place(
        ...     Job(model="gpt3-2.7b", n_gpus=16))
        >>> res.makespan <= res.default_makespan
        True
        >>> res.placement.n_replicas == res.default_placement.n_replicas
        True
        """
        spec = self._resolve_spec(job, spec)
        _fidelity, scenario = resolve_fidelity(
            job.fidelity, scenario, default="sim",
            overlap=job.overlap, placement=job.placement,
        )
        pipeline = self._pipeline(job, spec, "place")
        with self._op("place"):
            return place_replicas(
                spec, scenario=scenario, swap_sweeps=swap_sweeps, **pipeline
            )

    # -- search questions ---------------------------------------------------
    def plan(
        self,
        job: Job,
        scenario=None,
        *,
        frameworks: tuple = FRAMEWORKS,
        microbatch_sizes: tuple = (1, 2, 4),
        explore_no_checkpoint: bool = True,
        spec: ModelSpec | None = None,
    ) -> PlanResult:
        """Search the configuration space for ``job``'s workload.

        The job contributes model, GPU count, sparsity, fidelity,
        partition mode, and the overlap/placement costing knobs; the
        search axes (frameworks, microbatch sizes, checkpointing) stay
        free kwargs because they enumerate the space rather than
        identify the workload.

        >>> from repro.api import Job, Machine, Session
        >>> plan = Session(Machine.summit()).plan(
        ...     Job(model="gpt3-xl", n_gpus=64))
        >>> plan.best.config.framework
        'axonn+samo'
        >>> plan.best.total_time <= plan.feasible[-1].total_time
        True
        """
        spec = self._resolve_spec(job, spec)
        fidelity, scenario = resolve_fidelity(
            job.fidelity, scenario, overlap=job.overlap, placement=job.placement
        )
        space = self._space(
            job, spec,
            frameworks=frameworks,
            microbatch_sizes=microbatch_sizes,
            explore_no_checkpoint=explore_no_checkpoint,
        )
        estimator = make_estimator(
            fidelity,
            spec,
            self.machine.cal,
            scenario=scenario,
            partition_mode=job.partition_mode,
            overlap=job.overlap,
            placement=job.placement,
        )
        with self._op("plan"):
            (result,) = self._search(
                spec, space, estimator, [getattr(estimator, "scenario", None)],
                job.n_gpus, job.partition_mode,
            )
            return result

    def robust_plan(
        self,
        job: Job,
        scenarios,
        *,
        frameworks: tuple = FRAMEWORKS,
        microbatch_sizes: tuple = (1, 2, 4),
        explore_no_checkpoint: bool = True,
        spec: ModelSpec | None = None,
    ) -> RobustPlanResult:
        """Rank configurations by expected cost over a scenario set.

        Prices every (config, scenario) cell through the shared cache
        (:meth:`_price_columns`), so re-planning the same distribution
        (or any overlapping one) costs nothing, then aggregates per
        candidate: probability-weighted expected time and the worst case
        with its culprit scenario. A neutral-only set reproduces
        :meth:`plan`'s ranking bit-exactly.

        >>> from repro.api import Job, Machine, Session
        >>> res = Session(Machine.summit()).robust_plan(
        ...     Job(model="gpt3-xl", n_gpus=64), "neutral")
        >>> res.best.worst_scenario
        'neutral'
        >>> res.best.expected_time == res.best.worst_time
        True
        """
        spec = self._resolve_spec(job, spec)
        sset = get_scenario_set(scenarios)
        fidelity = job.fidelity
        if fidelity is None:
            # one coherent fidelity for the whole set: degraded members —
            # or an overlap/placement job knob — need the event engine; a
            # neutral-only set without those knobs keeps the default
            needs_engine = (
                not sset.is_neutral_only or job.overlap or job.placement != "block"
            )
            fidelity = "sim" if needs_engine else "analytic"
        job = job.with_(fidelity=fidelity)

        labels = list(sset.labels())
        with self._op("robust_plan"):
            per_scenario, times, fits = self._price_columns(
                job, spec, labels, list(sset.scenarios),
                frameworks=frameworks,
                microbatch_sizes=microbatch_sizes,
                explore_no_checkpoint=explore_no_checkpoint,
            )
        first = per_scenario[labels[0]].evaluations
        if len(labels) == 1:
            # exact degeneration: no float round-trip through the dot
            expected = times[:, 0]
        else:
            expected = times @ np.asarray(sset.weights)
        return RobustPlanResult(
            model=spec.name,
            n_gpus=job.n_gpus,
            # the job-level fidelity, not a per-scenario estimator label
            # like "sim@straggler" — this result spans the whole set
            fidelity=fidelity,
            budget_bytes=self.machine.gpu_memory_bytes,
            scenario_set=sset,
            configs=tuple(ev.config for ev in first),
            memory=tuple(ev.memory_bytes for ev in first),
            batch=tuple(ev.batch_size for ev in first),
            times=times,
            expected=expected,
            # argmax picks the first maximum, like max() over labels in order
            worst=np.argmax(times, axis=1),
            fits=fits,
            per_scenario=per_scenario,
            stats={
                "scenarios": len(labels),
                "candidates": sum(r.stats.candidates for r in per_scenario.values()),
                "evaluated": sum(r.stats.evaluated for r in per_scenario.values()),
                "cache_hits": sum(r.stats.cache_hits for r in per_scenario.values()),
                "wall_seconds": round(
                    sum(r.stats.wall_seconds for r in per_scenario.values()), 4
                ),
            },
        )

    def _price_columns(
        self,
        job: Job,
        spec: ModelSpec,
        labels: list,
        columns: list,
        *,
        frameworks: tuple,
        microbatch_sizes: tuple,
        explore_no_checkpoint: bool,
    ) -> tuple:
        """Price every candidate under every scenario column.

        ``labels``/``columns`` name the scenario columns (a
        :class:`ScenarioSet`'s members for :meth:`robust_plan`, a
        :class:`~repro.stochastic.ScenarioProcess`'s reachable scenarios
        for :meth:`mc_robust_plan`). A batch-capable fidelity prices the
        whole candidates × columns matrix as one request
        (:meth:`_search`); any other fidelity runs one :meth:`plan` per
        column, each a one-column matrix. A neutral-only column list
        degenerates to :meth:`plan` bit-identically either way.

        Returns one :class:`PlanResult` per label, every column listing
        the same candidates in the same order; and the (candidates ×
        columns) time matrix and each candidate's feasibility under every
        column, read in one pass over the cells.
        """
        axes = {
            "frameworks": frameworks,
            "microbatch_sizes": microbatch_sizes,
            "explore_no_checkpoint": explore_no_checkpoint,
        }
        try:
            probe = make_estimator(
                job.fidelity, spec, self.machine.cal,
                partition_mode=job.partition_mode,
                overlap=job.overlap, placement=job.placement,
            )
        except Exception:
            # contradictions (e.g. analytic + overlap) surface with their
            # canonical message from the per-column plan() below
            probe = None
        if probe is None or not getattr(probe, "supports_batch", False):
            per_label = {
                label: self.plan(job, scenario=column, spec=spec, **axes)
                for label, column in zip(labels, columns)
            }
        else:
            results = self._search(
                spec, self._space(job, spec, **axes), probe, columns,
                job.n_gpus, job.partition_mode,
            )
            per_label = dict(zip(labels, results))
        cols = [res.evaluations for res in per_label.values()]
        n = len(cols[0])
        cells = np.fromiter(
            itertools.chain.from_iterable(
                (ev.total_time, ev.feasible) for col in cols for ev in col
            ),
            float, count=2 * n * len(cols),
        ).reshape(len(cols), n, 2)
        # C order, as the row-major matrix the weights are dotted with
        times = np.ascontiguousarray(cells[:, :, 0].T)
        fits = cells[:, :, 1].all(axis=0)
        return per_label, times, fits

    # -- stochastic questions -----------------------------------------------
    def mc_robust_plan(
        self,
        job: Job,
        process,
        *,
        samples: int = 32,
        seed: int = 0,
        crn: bool = True,
        frameworks: tuple = FRAMEWORKS,
        microbatch_sizes: tuple = (1, 2, 4),
        explore_no_checkpoint: bool = True,
        spec: ModelSpec | None = None,
    ):
        """Monte-Carlo robust plan over a sampled failure process.

        Draws ``samples`` degradation timelines from ``process`` (a
        :class:`~repro.stochastic.ScenarioProcess` or a name from
        :data:`~repro.stochastic.PROCESSES`), prices every candidate on
        every draw — by common random numbers across candidates unless
        ``crn=False`` — and ranks by mean cost with 95% confidence
        intervals; statistically tied leaders are flagged. A process
        that can never fire degenerates to :meth:`plan` bit-identically.
        The draws' exposure rows are kept per session by (process, seed),
        so asking again with no more samples draws nothing.

        >>> from repro.api import Job, Machine, Session
        >>> res = Session(Machine.summit()).mc_robust_plan(
        ...     Job(model="gpt3-xl", n_gpus=16), "calm", samples=4, seed=7)
        >>> res.best.std_time == 0.0
        True
        >>> res.fidelity
        'analytic'
        """
        spec = self._resolve_spec(job, spec)
        with self._op("mc_robust_plan"):
            return run_mc_robust_plan(
                self, job, process,
                samples=samples, seed=seed, crn=crn,
                frameworks=frameworks,
                microbatch_sizes=microbatch_sizes,
                explore_no_checkpoint=explore_no_checkpoint,
                spec=spec,
            )

    def replan(
        self,
        job: Job,
        failure,
        *,
        at: float = 0.5,
        horizon_batches: float = 500.0,
        migration_seconds: float | None = None,
        spec: ModelSpec | None = None,
    ):
        """Ride out a mid-job failure, or pay a migration to repair?

        ``failure`` is a scenario (name or instance) — or a sampled
        :class:`~repro.stochastic.ScenarioEvent`, which carries its own
        arrival time. Prices "keep the configuration" against
        time-balanced re-partitioning, optimized re-placement, and both,
        each charged ``migration_seconds`` (default: one stage's fp16
        parameter shard over the calibrated inter-node link), and
        returns the break-even :class:`~repro.stochastic.ReplanDecision`.

        >>> from repro.api import Job, Machine, Session
        >>> d = Session(Machine.summit()).replan(
        ...     Job(model="gpt3-2.7b", n_gpus=16), "straggler", at=0.5)
        >>> d.remaining_batches
        250.0
        >>> d.ride_seconds >= min(o.total_seconds for o in d.options) \\
        ...     or d.decision == "ride"
        True
        """
        from ..stochastic.replan import run_replan

        spec = self._resolve_spec(job, spec)
        with self._op("replan"):
            return run_replan(
                self, job, failure,
                at=at,
                horizon_batches=horizon_batches,
                migration_seconds=migration_seconds,
                spec=spec,
            )

    # -- the search loop ----------------------------------------------------
    def _space(
        self,
        job: Job,
        spec: ModelSpec,
        *,
        frameworks: tuple,
        microbatch_sizes: tuple,
        explore_no_checkpoint: bool,
    ) -> SearchSpace:
        return SearchSpace(
            spec=spec,
            n_gpus=job.n_gpus,
            frameworks=frameworks,
            sparsities=(job.sparsity,),
            microbatch_sizes=microbatch_sizes,
            explore_no_checkpoint=explore_no_checkpoint,
            cal=self.machine.cal,
        )

    def _search(
        self,
        spec: ModelSpec,
        space: SearchSpace,
        estimator: CostEstimator,
        columns: list,
        n_gpus: int,
        partition_mode: str = "flops",
    ) -> list[PlanResult]:
        """Enumerate, claim, price, publish: one :class:`PlanResult` per
        scenario column.

        A plan is a one-column matrix under its estimator's own
        scenario (:meth:`_claim`). Every column lists its evaluations in
        candidate order whatever the cache held, so tied times rank the
        same way every time.
        """
        t0 = time.perf_counter()
        fidelity = estimator.fidelity
        candidates, hashes = self._spaces.lookup(space)
        claim = self._claim(
            spec, candidates, estimator, columns, partition_mode, hashes
        )
        values = claim.values
        metrics = OBS.metrics
        n_cells = len(values)
        n_misses = len(claim.owned) + claim.waiting
        metrics.counter("planner.candidates").inc(n_cells)
        metrics.counter("planner.cache.hits").inc(n_cells - n_misses)
        metrics.counter("planner.cache.misses").inc(n_misses)

        n_cols = len(columns)
        evaluated = [0] * n_cols
        for i in claim.owned:
            evaluated[i % n_cols] += 1
        wall = (time.perf_counter() - t0) / n_cols
        return [
            PlanResult(
                model=spec.name,
                n_gpus=n_gpus,
                fidelity=fidelity,
                budget_bytes=self.machine.gpu_memory_bytes,
                evaluations=values[j::n_cols],
                stats=PlannerStats(
                    candidates=len(candidates),
                    evaluated=evaluated[j],
                    cache_hits=len(candidates) - evaluated[j],
                    pruned_memory=space.stats.pruned_memory,
                    pruned_branches=space.stats.pruned_branches,
                    wall_seconds=wall,
                ),
            )
            for j in range(n_cols)
        ]

    def _claim(
        self,
        spec: ModelSpec,
        candidates: list,
        estimator: CostEstimator,
        columns: list,
        partition_mode: str,
        hashes: tuple,
    ) -> Claim:
        """Claim, price, publish the candidates × columns cells.

        The matrix goes through the cache as one request
        (:meth:`EvaluationCache.acquire`): hits come back as stored,
        cells another request is pricing are waited on, and the cells
        this request owns are priced (:meth:`_price`) and published with
        :meth:`EvaluationCache.fulfil`. ``hashes`` are the candidates'
        ``canonical_hash`` values, in order. Returns the claim, its
        ``values`` filled row-major.
        """
        claim = self.cache.acquire(
            [
                cache_key_prefix(
                    self.machine, spec, estimator.fidelity, column, partition_mode
                )
                for column in columns
            ],
            hashes,
        )
        if claim.waiting:
            OBS.metrics.counter("serve.inflight_coalesced").inc(claim.waiting)
        if claim.owned:
            try:
                self._price(claim, candidates, estimator, columns)
            except BaseException as err:
                # wake coalesced waiters instead of hanging them
                self.cache.abandon(claim, err)
                raise
            self.cache.fulfil(claim)
        claim.wait()
        return claim

    def _price(
        self, claim: Claim, candidates, estimator: CostEstimator, columns: list
    ) -> None:
        """Price the claim's owned cells into ``claim.values``.

        A batch-capable estimator (``analytic`` and ``analytic-batch``)
        prices every row holding an owned cell across every column in
        one ``evaluate_batch`` call, and each owned cell is published as
        a view of its row and column
        (:meth:`~repro.autotune.batch.EvaluationBatch.views`),
        which builds its breakdown only when that is read. A scalar
        estimator prices its own scenario, so its matrix has one column
        and each owned cell is one ``evaluate``.
        """
        metrics = OBS.metrics
        fidelity = estimator.fidelity
        calls = metrics.counter("estimator.calls", {"fidelity": fidelity})
        latency = metrics.histogram("estimator.evaluate_seconds", {"fidelity": fidelity})
        values = claim.values
        if not getattr(estimator, "supports_batch", False):
            for i in claim.owned:
                t = time.perf_counter()
                values[i] = estimator.evaluate(candidates[i])
                latency.observe(time.perf_counter() - t)
                calls.inc()
            return
        n_cols = len(columns)
        rows = list(dict.fromkeys(i // n_cols for i in claim.owned))
        t = time.perf_counter()
        batch = estimator.evaluate_batch(
            [candidates[r] for r in rows], scenarios=columns
        )
        dt = time.perf_counter() - t
        latency.observe(dt)
        calls.inc()
        metrics.counter("estimator.batch_rows", {"fidelity": fidelity}).inc(
            len(rows) * n_cols
        )
        if OBS.enabled:
            OBS.tracer.record(
                "estimator.evaluate_batch", t, t + dt,
                category="plan", rows=len(rows), scenarios=n_cols,
            )
        row_of = {r: k for k, r in enumerate(rows)}
        owned = claim.owned
        views = batch.views([(row_of[i // n_cols], i % n_cols) for i in owned])
        for i, view in zip(owned, views):
            values[i] = view
