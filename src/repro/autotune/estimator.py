"""Cost estimation layer of the autotuner.

Adapts the repo's existing analytical models — the SAMO memory model
(Eqs. 1-5), the hybrid-parallel performance model (Eqs. 6-11) and the
calibrated device/collective models — behind one ``evaluate(config) ->
Evaluation`` interface, generalised over the axes the batch simulators
hard-code:

* explicit ``G_inter`` (the simulators always take the partitioner's
  minimum) — the search decides the pipeline depth;
* a ``G_tensor`` axis (Megatron-style intra-layer parallelism inside a
  node, used by the DeepSpeed-3D baseline);
* an activation-checkpointing toggle (off: no recompute, 3x-forward
  compute, but the full intermediate-activation footprint stays
  resident).

On the paper-protocol subspace (``G_tensor = 1``, checkpointing on, the
framework's default storage mode, the partitioner's ``G_inter`` — see
:func:`~repro.autotune.config.candidate_for_workload`) an estimator's
cell *is* the Figure-8 breakdown :meth:`repro.api.Session.breakdown`
answers.

:class:`SimulatorEstimator` (``--fidelity sim``) additionally replaces
the closed-form bubble of Eq. 7 with the event-driven 1F1B schedule
simulation of Figure 3, capturing warmup/drain and message-wait effects
the closed form ignores. Its stage times come from the flops
partitioner's actual (non-uniform) stage loads and its per-link message
times from the cluster topology, priced for every data-parallel
replica's chain (the batch pays the slowest); an optional
:class:`~repro.parallel.scenarios.ClusterScenario` (straggler GPU, slow
link, contention, degraded allreduce rings) lets the planner rank
configs under degraded-machine conditions — the scenario's collective
knobs reach the data-parallel and tensor-parallel ring cost models too.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field

from ..cluster.calibration import SUMMIT, SummitCalibration
from ..cluster.collectives import ring_allreduce_time
from ..cluster.device import ComputeKind, DeviceModel
from ..cluster.p2p import p2p_message_time, pipeline_message_bytes
from ..cluster.topology import Topology
from ..models.spec import ModelSpec
from ..parallel.data_parallel import collective_time
from ..parallel.partitioner import activation_bytes_per_gpu, model_state_bytes
from ..parallel.perf_model import (
    BatchBreakdown,
    ParallelConfig,
    bubble_time,
    microbatches_per_gpu,
    transmission_time,
)
from ..parallel.scenarios import (
    PLACEMENTS,
    OVERLAP_BUCKETS,
    ClusterScenario,
    get_scenario,
    overlap_exposed_collective,
    resolve_fidelity,
    simulate_hetero_pipeline,
    stage_payload_fractions,
)
from .config import SPARSE_MODES, CandidateConfig

__all__ = [
    "FULL_ACTIVATION_MULTIPLIER",
    "activation_footprint_bytes",
    "candidate_memory_per_gpu",
    "Evaluation",
    "CostEstimator",
    "AnalyticEstimator",
    "SimulatorEstimator",
    "available_fidelities",
    "register_estimator",
    "make_estimator",
]

#: Without checkpointing a layer retains its intermediate activations for
#: the backward pass, not just its input: attention scores, MLP hidden
#: states, normalisation buffers. We model that as a multiple of the
#: layer-output footprint — the standard transformer accounting puts the
#: resident intermediates at a small single-digit multiple of the block
#: output.
FULL_ACTIVATION_MULTIPLIER = 3.0


def activation_footprint_bytes(spec: ModelSpec, mbs: int, checkpoint: bool) -> int:
    """Per-GPU activation residency in half precision.

    Checkpointed: only each layer's input survives (the partitioner's
    accounting). Uncheckpointed: every layer's intermediates stay live;
    as with the checkpointed case, a stage holds ``layers/G_inter``
    layers times up to ``G_inter`` in-flight microbatches, so the product
    is independent of ``G_inter``.
    """
    if checkpoint:
        return activation_bytes_per_gpu(spec, mbs)
    out_elems = sum(l.activation_out_elems for l in spec.layers)
    return int(2 * FULL_ACTIVATION_MULTIPLIER * out_elems * mbs)


def candidate_memory_per_gpu(
    spec: ModelSpec,
    config: CandidateConfig,
    cal: SummitCalibration = SUMMIT,
) -> int:
    """Per-GPU bytes for a candidate: state shard + activations + overhead.

    Model state shards over the full model-parallel degree
    ``G_tensor * G_inter``; activations shard over ``G_tensor`` only
    (every tensor-parallel rank holds its slice of the same layers).
    """
    state = model_state_bytes(
        spec, config.mode, config.sparsity, g_data=config.g_data
    )
    acts = activation_footprint_bytes(spec, config.mbs, config.checkpoint_activations)
    return (
        state // config.model_parallel_degree
        + acts // config.g_tensor
        + cal.framework_overhead_bytes
    )


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Evaluation:
    """Costed candidate: the Figure-8 breakdown plus memory feasibility.

    A stored cell never changes, so :attr:`fragment` can keep its wire
    form, ``json.dumps(self.to_dict())``: ``repro.serve.server`` sets it
    to ``""`` on the cell's first encode and to the text on its second,
    so a cell encoded only once keeps no text (outside ``==``, hash and
    repr).
    """

    config: CandidateConfig
    breakdown: BatchBreakdown
    memory_bytes: int
    feasible: bool
    batch_size: int
    fidelity: str = "analytic"
    fragment: str | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def total_time(self) -> float:
        return self.breakdown.total

    @property
    def throughput(self) -> float:
        """Samples per second for the global batch."""
        return self.batch_size / self.breakdown.total

    def to_dict(self) -> dict:
        """JSON-ready mapping; inverse of :meth:`from_dict`."""
        return {
            "config": self.config.to_dict(),
            "breakdown": self.breakdown.to_dict(),
            "memory_bytes": self.memory_bytes,
            "feasible": self.feasible,
            "batch_size": self.batch_size,
            "fidelity": self.fidelity,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Evaluation":
        return cls(
            config=CandidateConfig.from_dict(data["config"]),
            breakdown=BatchBreakdown.from_dict(data["breakdown"]),
            memory_bytes=data["memory_bytes"],
            feasible=data["feasible"],
            batch_size=data["batch_size"],
            fidelity=data["fidelity"],
        )

    def as_row(self) -> dict:
        b = self.breakdown
        return {
            "framework": self.config.framework,
            "mode": str(self.config.mode),
            "G_t": self.config.g_tensor,
            "G_i": self.config.g_inter,
            "G_d": self.config.g_data,
            "mbs": self.config.mbs,
            "ckpt": "y" if self.config.checkpoint_activations else "n",
            "p": f"{self.config.sparsity:g}",
            "time (s)": round(b.total, 3),
            "tput (smp/s)": round(self.throughput, 1),
            "mem/GPU (GB)": round(self.memory_bytes / 1e9, 2),
            "feasible": "y" if self.feasible else "n",
        }


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

class CostEstimator:
    """Base interface: cost one :class:`CandidateConfig` for one model.

    The degraded-machine ``scenario`` is part of the constructor
    contract: subclasses that cannot price one
    (``supports_scenarios = False``) reject it right here, so a directly
    constructed estimator can never carry a scenario it would silently
    ignore — enforcement no longer lives only in the factory.
    """

    fidelity = "analytic"
    #: whether this estimator can price a degraded-machine scenario
    supports_scenarios = False
    #: overlap-aware collective pricing (only the event engine can)
    overlap = False
    #: replica placement the pipeline is priced at ("block" or "best")
    placement = "block"
    #: bucket count of the overlapped data-parallel all-reduce
    n_buckets = OVERLAP_BUCKETS

    def __init__(
        self,
        spec: ModelSpec,
        cal: SummitCalibration = SUMMIT,
        scenario: ClusterScenario | str | None = None,
    ):
        self.spec = spec
        self.cal = cal
        self.device = DeviceModel(cal)
        scenario = get_scenario(scenario)
        if scenario is not None and not self.supports_scenarios:
            # same shared contradiction check every entry point uses
            resolve_fidelity("analytic", scenario)
        #: degraded-machine scenario threaded into every phase the
        #: estimator prices (pipeline *and* collectives)
        self.scenario: ClusterScenario | None = scenario

    def evaluate(self, config: CandidateConfig) -> Evaluation:
        raise NotImplementedError

    #: whether :meth:`evaluate_batch` is vectorized (the base fallback
    #: just loops :meth:`evaluate`, so planners only reroute when True)
    supports_batch = False

    def with_scenario(self, scenario) -> "CostEstimator":
        """This estimator re-bound to ``scenario`` (self when unchanged).

        The batch protocol prices a config × scenario matrix; scalar
        estimators cover the scenario columns by cloning themselves per
        column. Subclasses with extra costing knobs override this to
        carry them across.
        """
        if get_scenario(scenario) == self.scenario:
            return self
        return type(self)(self.spec, self.cal, scenario=scenario)

    def evaluate_batch(self, configs, scenarios=None) -> "EvaluationBatch":
        """Cost a config grid × scenario set as one structure-of-arrays.

        ``scenarios=None`` prices the single column of the estimator's
        own scenario; otherwise each entry (a scenario, preset name, or
        None) becomes one column, overriding the constructor scenario.
        This base implementation is the scalar-loop fallback — cell
        ``(i, j)`` is exactly ``with_scenario(scenarios[j])
        .evaluate(configs[i])`` — so every registered fidelity answers
        the batch protocol; vectorized subclasses (``supports_batch =
        True``) replace the loop with array programs that must match it
        element-wise.
        """
        from .batch import EvaluationBatch  # deferred: batch builds on this module

        configs = tuple(configs)
        if scenarios is None:
            columns = (self.scenario,)
        else:
            columns = tuple(get_scenario(s) for s in scenarios)
        grid = []
        for sc in columns:
            est = self.with_scenario(sc)
            grid.append([est.evaluate(c) for c in configs])
        # grid is column-major (scenario, config); transpose to (i, j)
        rows = [[grid[j][i] for j in range(len(columns))] for i in range(len(configs))]
        return EvaluationBatch.from_evaluations(
            configs, columns, rows, fidelity=self.fidelity,
            batch_size=self.spec.batch_size,
        )

    # -- shared pieces ------------------------------------------------------
    def _compute_kind(self, config: CandidateConfig) -> str:
        if self.spec.family == "cnn":
            return ComputeKind.CONV
        if config.framework == "sputnik":
            return ComputeKind.SPARSE_SPUTNIK
        return ComputeKind.DENSE_GEMM

    @functools.cached_property
    def _max_boundary_elems(self) -> int:
        """Largest inter-layer boundary of the spec, computed once.

        The spec is fixed for the estimator's lifetime but this max used
        to be recomputed on every ``evaluate`` call — an O(layers) scan
        on the planner's hot path (see
        ``benchmarks/results/lru_cache_micro_note.txt``).
        """
        spec = self.spec
        return max(
            spec.layers[i].activation_out_elems for i in range(spec.num_layers - 1)
        )

    def _boundary_message_time(self, config: CandidateConfig) -> float:
        """Transfer seconds of one pipeline activation/gradient message.

        Sized by the largest inter-layer boundary (the conservative
        payload any stage cut might carry), as in the batch simulators.
        """
        msg_bytes = pipeline_message_bytes(config.mbs, self._max_boundary_elems)
        return p2p_message_time(msg_bytes, cal=self.cal)

    def _tensor_parallel_collective(
        self, config: CandidateConfig, microbatches: int
    ) -> float:
        """Megatron-style intra-layer all-reduces, intra-node.

        Two all-reduces of the block activation per microbatch in the
        forward and two in the backward, per transformer block, across
        the ``G_tensor`` group. ``G_tensor`` is capped at the node size,
        so the ring runs at NVLink-class bandwidth.
        """
        g = config.g_tensor
        if g <= 1:
            return 0.0
        # G_tensor is capped at the node size, so ranks 0..g-1 of a
        # g-GPU topology form an intra-node group: the ring runs at
        # NVLink-class bandwidth, and the scenario's collective knobs
        # (slow ring links, a stalling rank — but not the cross-node
        # one) degrade it through the shared ring cost model.
        topo = Topology(g, self.cal)
        ranks = list(range(g))
        # Transformer blocks share one activation shape, so the ring
        # model is priced once per distinct payload, not once per block
        # (this sits on the planner's hot path).
        payload_counts = Counter(
            2 * config.mbs * l.activation_out_elems
            for l in self.spec.layers
            if l.kind == "transformer_block"
        )
        total = sum(
            n_blocks
            * 4.0
            * ring_allreduce_time(
                nbytes, g, self.cal, topology=topo, ranks=ranks, scenario=self.scenario
            )
            for nbytes, n_blocks in payload_counts.items()
        )
        return total * microbatches / config.g_inter


class AnalyticEstimator(CostEstimator):
    """Closed-form Eqs. 6-11 generalised over the search axes.

    The reference that the array program pricing ``fidelity="analytic"``
    (:mod:`repro.autotune.batch`) reproduces bit for bit; the sim and
    measured estimators build on it.
    """

    fidelity = "analytic"

    def evaluate(self, config: CandidateConfig) -> Evaluation:
        spec = self.spec
        if spec.family == "cnn":
            return self._evaluate_cnn(config)
        cal = self.cal
        m = microbatches_per_gpu(spec.batch_size, config.g_data, config.mbs)
        pcfg = ParallelConfig(
            n_gpus=config.g_inter * config.g_data,
            g_inter=config.g_inter,
            g_data=config.g_data,
            mbs=config.mbs,
            microbatches=m,
        )

        # -- compute --------------------------------------------------------
        t_f, t_b = self._stage_times(config)
        compute = m * (t_f + t_b)
        overhead = self._compress_overhead(config, m)

        # -- p2p + bubble ---------------------------------------------------
        p2p, bubble, trace = self._pipeline_costs(config, m, t_f, t_b)

        # -- collectives ----------------------------------------------------
        coll = collective_time(
            spec,
            config.model_parallel_degree,
            config.g_data,
            sparse=config.mode in SPARSE_MODES,
            sparsity=config.sparsity,
            cal=cal,
            scenario=self.scenario,
        )
        overlap_notes = {}
        if self.overlap:
            # only an asynchronous message-driven schedule can hide the
            # all-reduce behind its drain; DeepSpeed-3D pipelines
            # synchronously
            if trace is not None and config.framework != "deepspeed-3d":
                # overlap-aware fidelity: the data-parallel all-reduce hides
                # behind the drain on the event timeline (the tensor-parallel
                # collectives below stay additive — they sit inside the
                # microbatch critical path, not after the flush); each
                # stage rings its actual parameter share of the payload
                fractions = stage_payload_fractions(
                    spec, config.g_inter,
                    getattr(self, "partition_mode", "flops"), self.scenario,
                )
                report = overlap_exposed_collective(
                    trace, coll, self.n_buckets, stage_fractions=fractions
                )
                overlap_notes = {
                    "overlap": True,
                    "collective_additive": report.additive,
                    "collective_hidden": report.hidden,
                }
                coll = report.exposed
            else:
                overlap_notes = {"overlap": False}
        coll += self._tensor_parallel_collective(config, m)

        other = cal.other_fraction * compute
        mem = candidate_memory_per_gpu(spec, config, cal)

        breakdown = BatchBreakdown(
            framework=config.framework,
            model=spec.name,
            config=pcfg,
            compute=compute + overhead,
            p2p=p2p,
            bubble=bubble,
            collective=coll,
            other=other,
            memory_per_gpu=mem,
            notes={
                "t_f": t_f,
                "t_b": t_b,
                "overhead": overhead,
                "mode": config.mode,
                "g_tensor": config.g_tensor,
                "fidelity": self.fidelity,
                **overlap_notes,
            },
        )
        return Evaluation(
            config=config,
            breakdown=breakdown,
            memory_bytes=mem,
            feasible=mem <= cal.gpu_memory_bytes,
            batch_size=spec.batch_size,
            fidelity=self.fidelity,
        )

    # -- helpers ------------------------------------------------------------
    def _stage_times(self, config: CandidateConfig) -> tuple[float, float]:
        """Per-microbatch per-stage forward/backward compute seconds."""
        fwd_flops = self.spec.fwd_flops_per_sample() * config.mbs
        t_f = self.device.time(fwd_flops, self._compute_kind(config)) / (
            config.model_parallel_degree
        )
        bwd_factor = 3.0 if config.checkpoint_activations else 2.0
        return t_f, bwd_factor * t_f

    def _compress_overhead(self, config: CandidateConfig, microbatches: int) -> float:
        """SAMO's backward gradient-compression gather (Section VI-C).

        A gather over the stage's parameters per microbatch (not a
        flops-proportional term), calibrated against the paper's
        8-12%-of-batch observation; a pure data-parallel CNN batch is one
        microbatch.
        """
        if config.mode.value != "samo":
            return 0.0
        stage_params = self.spec.param_count / config.model_parallel_degree
        return self.cal.samo_compress_cost_per_param * stage_params * microbatches

    def _pipeline_costs(
        self, config: CandidateConfig, m: int, t_f: float, t_b: float
    ) -> tuple:
        """Returns ``(p2p, bubble, trace)``; the closed form has no
        schedule trace (``None``), so overlap can never apply to it."""
        if config.g_inter <= 1:
            return 0.0, 0.0, None
        cal = self.cal
        t_msg = self._boundary_message_time(config)
        p2p = transmission_time(
            self.spec.batch_size, config.g_data, config.mbs, t_msg, config.g_inter
        )
        bubble = bubble_time(config.g_inter, t_f * config.g_inter, t_b * config.g_inter)
        if config.framework == "deepspeed-3d":
            p2p *= cal.deepspeed_p2p_penalty
            bubble *= cal.deepspeed_bubble_penalty
        return p2p, bubble, None

    def _evaluate_cnn(self, config: CandidateConfig) -> Evaluation:
        """Pure data parallel (the paper's CNN regime, Figure 5)."""
        spec, cal = self.spec, self.cal
        n_gpus = config.n_gpus
        if spec.batch_size % n_gpus:
            raise ValueError(f"batch {spec.batch_size} not divisible by {n_gpus} GPUs")
        samples_per_gpu = spec.batch_size // n_gpus
        pcfg = ParallelConfig(
            n_gpus=n_gpus, g_inter=1, g_data=n_gpus, mbs=config.mbs, microbatches=1
        )
        hint = spec.efficiency_hint
        eff_max = hint.get("eff_max", cal.conv_efficiency)
        half = hint.get("half_batch", cal.conv_half_batch)
        eff = eff_max * samples_per_gpu / (samples_per_gpu + half)
        fwd = spec.fwd_flops_per_sample()
        compute = 3.0 * fwd * samples_per_gpu / (self.device.peak_flops * eff)
        backward_compute = compute * 2.0 / 3.0
        overhead = self._compress_overhead(config, 1)
        coll = collective_time(
            spec,
            1,
            n_gpus,
            sparse=config.mode in SPARSE_MODES,
            sparsity=config.sparsity,
            overlap_with_backward=cal.dp_overlap_fraction,
            backward_compute_time=backward_compute,
            cal=cal,
            scenario=self.scenario,
        )
        other = cal.other_fraction * compute
        mem = candidate_memory_per_gpu(spec, config, cal)
        breakdown = BatchBreakdown(
            framework=config.framework,
            model=spec.name,
            config=pcfg,
            compute=compute + overhead,
            p2p=0.0,
            bubble=0.0,
            collective=coll,
            other=other,
            memory_per_gpu=mem,
            notes={"mode": config.mode, "fidelity": self.fidelity},
        )
        return Evaluation(
            config=config,
            breakdown=breakdown,
            memory_bytes=mem,
            feasible=mem <= cal.gpu_memory_bytes,
            batch_size=spec.batch_size,
            fidelity=self.fidelity,
        )


class SimulatorEstimator(AnalyticEstimator):
    """Higher-fidelity pipeline costing via the event-driven 1F1B trace.

    Instead of Eq. 7's closed-form bubble plus a serialized message term,
    run the Figure 3 schedule simulation and report the schedule's time
    beyond the ideal uniform compute — ``makespan - m * (t_f + t_b)`` —
    as the exposed pipeline cost (the p2p phase is folded into it:
    message waits, straggler overhang, and warmup/drain all surface
    there, and the uniform free-message limit is exactly Eq. 7's
    bubble). Stage times follow the flops
    partitioner's actual stage loads and link times follow the topology
    (NVLink intra-node hops vs cross-node hops, per-cut payloads); an
    optional scenario degrades stages/links on top.

    ``overlap=True`` additionally replaces the additive data-parallel
    collective with its event-timeline exposure
    (:func:`~repro.parallel.scenarios.overlap_exposed_collective`), and
    ``placement="best"`` prices every candidate at the optimized replica
    placement (:mod:`repro.parallel.placement`) instead of the block
    layout; both knobs land in the fidelity label so cache keys and
    reports cannot alias the additive numbers.
    """

    fidelity = "sim"
    supports_scenarios = True

    def __init__(
        self,
        spec: ModelSpec,
        cal: SummitCalibration = SUMMIT,
        scenario: ClusterScenario | str | None = None,
        partition_mode: str = "flops",
        overlap: bool = False,
        placement: str = "block",
        n_buckets: int = OVERLAP_BUCKETS,
    ):
        super().__init__(spec, cal, scenario=scenario)
        if partition_mode not in ("flops", "time"):
            raise ValueError(
                f"unknown partition_mode {partition_mode!r}; choose 'flops' or 'time'"
            )
        if placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {placement!r}; choose from {PLACEMENTS}"
            )
        if n_buckets < 1:
            raise ValueError(f"n_buckets must be >= 1, got {n_buckets}")
        self.partition_mode = partition_mode
        self.overlap = bool(overlap)
        self.placement = placement
        self.n_buckets = n_buckets
        # the fidelity label carries every costing-relevant knob so cache
        # keys and reports distinguish degraded/rebalanced/overlapped plans
        if self.scenario is not None:
            self.fidelity = f"sim@{self.scenario.name}"
        if partition_mode != "flops":
            self.fidelity = f"{self.fidelity}+{partition_mode}-balanced"
        if self.overlap:
            self.fidelity = f"{self.fidelity}+overlap"
            if n_buckets != OVERLAP_BUCKETS:
                # a different bucket count prices a different exposure;
                # it must not alias the default's cache entries
                self.fidelity = f"{self.fidelity}[{n_buckets}]"
        if self.placement != "block":
            self.fidelity = f"{self.fidelity}+{self.placement}-placement"

    def with_scenario(self, scenario) -> "SimulatorEstimator":
        if get_scenario(scenario) == self.scenario:
            return self
        return type(self)(
            self.spec, self.cal, scenario=scenario,
            partition_mode=self.partition_mode, overlap=self.overlap,
            placement=self.placement, n_buckets=self.n_buckets,
        )

    def _pipeline_costs(
        self, config: CandidateConfig, m: int, t_f: float, t_b: float
    ) -> tuple:
        # A degraded machine hits single-stage configs too (data-parallel
        # sync waits for the slow replica) and overlap needs the schedule
        # trace even for one stage, so only the knob-free g_inter == 1
        # case short-circuits.
        if config.g_inter <= 1 and self.scenario is None and not self.overlap:
            return 0.0, 0.0, None
        blocking = config.framework == "deepspeed-3d"
        trace = simulate_hetero_pipeline(
            self.spec,
            g_inter=config.g_inter,
            m=m,
            mbs=config.mbs,
            t_f_model=t_f * config.g_inter,
            t_b_model=t_b * config.g_inter,
            n_gpus=config.n_gpus,
            g_tensor=config.g_tensor,
            cal=self.cal,
            scenario=self.scenario,
            blocking_sends=blocking,
            partition_mode=self.partition_mode,
            placement=self.placement,
        )
        exposed = max(trace.makespan - m * (t_f + t_b), 0.0)
        return 0.0, exposed, trace


# ---------------------------------------------------------------------------
# fidelity registry
# ---------------------------------------------------------------------------

#: fidelity name -> factory(spec, cal, *, scenario, partition_mode)
_ESTIMATOR_REGISTRY: dict = {}


def register_estimator(fidelity: str, factory=None, *, overwrite: bool = False):
    """Register a costing backend under a fidelity name.

    New fidelities plug in without editing any factory::

        @register_estimator("profiled")
        def _make(spec, cal, *, scenario=None, partition_mode="flops"):
            return ProfiledEstimator(spec, cal, scenario=scenario)

    The factory must hand ``scenario`` to an estimator that carries (or
    rejects) it — :func:`make_estimator` verifies this, so a backend can
    never silently price the pristine machine for a degraded request.

    Usable directly (``register_estimator("sim", factory)``) or as a
    decorator. Duplicate names raise unless ``overwrite=True`` — silent
    replacement of a fidelity would invalidate cache-key semantics.
    """

    def _register(f):
        if not overwrite and fidelity in _ESTIMATOR_REGISTRY:
            raise ValueError(
                f"fidelity {fidelity!r} is already registered; "
                "pass overwrite=True to replace it"
            )
        _ESTIMATOR_REGISTRY[fidelity] = f
        return f

    return _register if factory is None else _register(factory)


def available_fidelities() -> tuple[str, ...]:
    """Registered fidelity names, sorted."""
    return tuple(sorted(_ESTIMATOR_REGISTRY))


def make_estimator(
    fidelity: str,
    spec: ModelSpec,
    cal: SummitCalibration = SUMMIT,
    scenario: ClusterScenario | str | None = None,
    partition_mode: str = "flops",
    overlap: bool = False,
    placement: str = "block",
    seed: int = 0,
) -> CostEstimator:
    """Instantiate the registered estimator for ``fidelity``.

    ``overlap``/``placement``/``seed`` are forwarded only when
    non-default, so registered factories that predate those knobs keep
    working; a factory that cannot honour them fails loudly (TypeError)
    instead of silently pricing the additive block layout (``seed``
    pins the measured fidelity's synthetic execution).
    """
    try:
        factory = _ESTIMATOR_REGISTRY[fidelity]
    except KeyError:
        raise ValueError(
            f"unknown fidelity {fidelity!r}; "
            f"choose from: {', '.join(available_fidelities())}"
        ) from None
    extras = {}
    if overlap:
        extras["overlap"] = True
    if placement != "block":
        extras["placement"] = placement
    if seed != 0:
        extras["seed"] = seed
    estimator = factory(
        spec, cal, scenario=scenario, partition_mode=partition_mode, **extras
    )
    scenario = get_scenario(scenario)
    if scenario is not None and getattr(estimator, "scenario", None) != scenario:
        # a factory that swallows the scenario would silently price the
        # pristine machine (and alias its cache entries) — the exact bug
        # the constructor contract exists to prevent
        raise ValueError(
            f"fidelity {fidelity!r} ignored the requested scenario "
            f"{scenario.name!r}; its factory must pass scenario through "
            "to the estimator (or the estimator must reject it)"
        )
    return estimator


@register_estimator("sim")
def _make_sim(
    spec, cal=SUMMIT, *, scenario=None, partition_mode="flops",
    overlap=False, placement="block",
):
    return SimulatorEstimator(
        spec, cal, scenario=scenario, partition_mode=partition_mode,
        overlap=overlap, placement=placement,
    )
