"""Heterogeneity scenarios for the cluster-level cost model.

The paper's performance model (Eqs. 6-11) assumes uniform stages on
identical GPUs joined by one flat message cost, and prices every
data-parallel allreduce at pristine-ring bandwidth. Real clusters are not
that kind: a GPU can run slow (thermal throttling, a bad HBM stack), a
link can run slow (a congested InfiniBand switch), a flops-balanced
partition can still be skewed (layers don't divide evenly), messages can
contend for a shared link, and the collective phase degrades too — a
slow ring link paces every synchronized allreduce step, a stalling rank
delays the whole group, and cross-node rings lose bandwidth to fabric
congestion. A :class:`ClusterScenario` packages one such deviation as a
transform on the per-stage compute times and per-link message times that
:func:`repro.parallel.simulate_pipeline` consumes **plus** the
multipliers the ring-collective cost models apply
(:func:`repro.cluster.collectives.ring_allreduce_time` and friends take
an optional ``scenario``); :data:`SCENARIOS` holds the named presets the
CLI exposes. With every knob at its neutral value the scenario is the
identity transform and the analytic Eqs. 4-7 costs are reproduced
exactly (``tests/test_scenario_consistency.py``).

:func:`simulate_hetero_pipeline` is the bridge used by the batch model
and the autotuner's ``sim`` fidelity: it derives *actual* per-stage
times from the partitioner (flops-balanced by default, or
time-under-scenario balanced with ``partition_mode="time"``), prices
**every data-parallel replica's** stage chain from the cluster topology
(NVLink inside a node, calibrated InfiniBand across nodes) with the
payload of the actual cut, applies the scenario, and reports the
slowest replica's schedule — the one a synchronous data-parallel step
waits for.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from ..cluster.calibration import SUMMIT, SummitCalibration
from ..cluster.collectives import (
    allreduce_time,
    resolve_allreduce_algo,
    ring_allreduce_time,
)
from ..cluster.events import EventLoop, SerialResource
from ..cluster.p2p import pipeline_message_bytes
from ..cluster.topology import Topology
from ..models.spec import ModelSpec
from ..obs import OBS
from .partitioner import PartitionPlan, balanced_partition
from .perf_model import bubble_time
from .pipeline import PipelineTrace, simulate_pipeline

__all__ = [
    "ClusterScenario",
    "SCENARIOS",
    "get_scenario",
    "resolve_fidelity",
    "OverlapReport",
    "overlap_exposed_collective",
    "stage_payload_fractions",
    "simulate_hetero_pipeline",
    "compare_partition_modes",
    "run_scenario",
]

PLACEMENTS = ("block", "best")


@dataclass(frozen=True)
class ClusterScenario:
    """One named deviation from the uniform/identical-GPU assumption.

    Covers both phases of a hybrid-parallel batch: the **pipeline**
    knobs transform per-stage compute times and per-link message times,
    and the **collective** knobs degrade the data-parallel ring
    collectives (the cost models in :mod:`repro.cluster.collectives`
    consult them through :meth:`collective_beta_multiplier` and
    :meth:`collective_stall_factor`). Frozen and hashable so it can
    participate in planner cache keys. Stage/link indices are resolved
    modulo the actual pipeline depth, so one preset applies at any
    ``G_inter``.
    """

    name: str
    description: str = ""
    # -- pipeline phase ------------------------------------------------
    #: multiply one stage's compute times (a throttled/straggler GPU)
    straggler_stage: int | None = None
    straggler_factor: float = 1.0
    #: multiply one link's message time (a congested switch / slow hop)
    slow_link: int | None = None
    slow_link_factor: float = 1.0
    #: linear compute ramp across stages: stage i is scaled by
    #: ``1 + skew * (2i/(G-1) - 1)`` (front stages lighter, back heavier;
    #: mean load preserved) — a skewed-partition stand-in when no real
    #: flops partition is in play
    compute_skew: float = 0.0
    #: serialize messages sharing a stage-boundary link (half-duplex)
    link_contention: bool = False
    #: message time the CLI uses when the user gives none (presets that
    #: exercise links need a non-zero base to bite)
    base_msg_time: float = 0.0
    # -- collective phase ----------------------------------------------
    #: per-link bandwidth multipliers for the data-parallel ring,
    #: resolved cyclically over the group's links; every synchronized
    #: ring step moves one chunk over every link at once, so the whole
    #: collective runs at the *slowest* link's pace
    ring_link_multipliers: tuple[float, ...] = ()
    #: a rank that stalls each allreduce step it takes part in; since
    #: ring steps are synchronized, any group containing it stretches by
    #: ``coll_straggler_factor`` (groups that pass their ranks and do
    #: not contain it are unaffected; rank-blind call sites
    #: conservatively assume membership)
    coll_straggler_rank: int | None = None
    coll_straggler_factor: float = 1.0
    #: ring bandwidth multiplier applied only when the group spans
    #: nodes (0.5 = the degraded/halved cross-node ring option)
    cross_node_bw_multiplier: float = 1.0
    #: which all-reduce schedule the collective phase is priced under —
    #: any name in :func:`repro.cluster.collectives.allreduce_algos`
    #: ("ring" is the flat NCCL baseline; "hierarchical" is the two-level
    #: reduce-scatter → cross-node ring → all-gather schedule)
    coll_algo: str = "ring"

    def __post_init__(self):
        if not isinstance(self.ring_link_multipliers, tuple):
            object.__setattr__(
                self, "ring_link_multipliers", tuple(self.ring_link_multipliers)
            )
        for knob in (
            "straggler_factor",
            "slow_link_factor",
            "coll_straggler_factor",
            "cross_node_bw_multiplier",
        ):
            if getattr(self, knob) <= 0:
                raise ValueError(f"{knob} must be positive, got {getattr(self, knob)}")
        if any(m <= 0 for m in self.ring_link_multipliers):
            raise ValueError(
                f"ring_link_multipliers must be positive, got {self.ring_link_multipliers}"
            )
        if self.coll_straggler_rank is not None and self.coll_straggler_rank < 0:
            raise ValueError(
                f"coll_straggler_rank must be non-negative, got {self.coll_straggler_rank}"
            )
        resolve_allreduce_algo(self.coll_algo)  # unknown algos raise here

    # -- pipeline transforms -------------------------------------------
    def scale_stage_times(self, times: list[float]) -> list[float]:
        g = len(times)
        out = list(times)
        if self.compute_skew and g > 1:
            ramp = [1.0 + self.compute_skew * (2.0 * i / (g - 1) - 1.0) for i in range(g)]
            out = [t * r for t, r in zip(out, ramp)]
        if self.straggler_stage is not None and g > 0:
            i = self.straggler_stage % g
            out[i] *= self.straggler_factor
        return out

    def scale_link_times(self, times: list[float]) -> list[float]:
        out = list(times)
        if self.slow_link is not None and out:
            i = self.slow_link % len(out)
            out[i] *= self.slow_link_factor
        return out

    # -- collective transforms -----------------------------------------
    def collective_beta_multiplier(
        self, group_size: int, spans_nodes: bool = True
    ) -> float:
        """Multiplier on the ring's effective per-rank bandwidth.

        A ring over ``group_size`` ranks has ``group_size`` links and
        every synchronized step uses all of them at once, so the slowest
        (smallest-multiplier) link paces the whole collective.
        """
        m = 1.0
        if self.ring_link_multipliers and group_size > 1:
            k = len(self.ring_link_multipliers)
            m *= min(self.ring_link_multipliers[i % k] for i in range(group_size))
        if spans_nodes:
            m *= self.cross_node_bw_multiplier
        return m

    def collective_stall_factor(
        self, group_size: int, ranks: "list[int] | None" = None
    ) -> float:
        """Group-wide stretch from a rank that stalls its ring steps.

        With ``ranks`` the stall applies only when the straggler is a
        member of the group; without them the caller cannot rule the
        straggler out, so membership is assumed (data-parallel groups
        typically cover the whole machine).
        """
        if self.coll_straggler_rank is None or group_size <= 1:
            return 1.0
        if ranks is not None and self.coll_straggler_rank not in ranks:
            return 1.0
        return self.coll_straggler_factor

    @property
    def degrades_collectives(self) -> bool:
        """True when any collective-phase knob is non-neutral.

        A non-default ``coll_algo`` counts: it prices the collective under
        a different schedule, so the scenario must not be canonicalised
        away as the pristine machine.
        """
        return (
            (bool(self.ring_link_multipliers) and min(self.ring_link_multipliers) != 1.0)
            or (
                self.coll_straggler_rank is not None
                and self.coll_straggler_factor != 1.0
            )
            or self.cross_node_bw_multiplier != 1.0
            or self.coll_algo != "ring"
        )

    @property
    def degrades_pipeline(self) -> bool:
        """True when any pipeline-phase knob is non-neutral.

        The closed-form analytic estimators cannot price these knobs
        (they need the event engine's per-stage schedule), so the batch
        estimator consults this to reject scenarios it would silently
        under-price — the collective knobs alone stay fair game for the
        closed form.
        """
        return (
            (self.straggler_stage is not None and self.straggler_factor != 1.0)
            or (self.slow_link is not None and self.slow_link_factor != 1.0)
            or self.compute_skew != 0.0
            or self.link_contention
        )

    @property
    def is_neutral(self) -> bool:
        """True when every knob is the identity transform.

        A neutral scenario prices every phase exactly like no scenario at
        all (``base_msg_time`` is only a CLI default, not a transform), so
        callers may canonicalise it to ``None`` — :class:`ScenarioSet`
        does, which is what makes a neutral-only robust plan bit-identical
        to a plain one.
        """
        return not self.degrades_pipeline and not self.degrades_collectives

    def to_dict(self) -> dict:
        """JSON-ready mapping; inverse of :meth:`from_dict`."""
        return {
            "name": self.name,
            "description": self.description,
            "straggler_stage": self.straggler_stage,
            "straggler_factor": self.straggler_factor,
            "slow_link": self.slow_link,
            "slow_link_factor": self.slow_link_factor,
            "compute_skew": self.compute_skew,
            "link_contention": self.link_contention,
            "base_msg_time": self.base_msg_time,
            "ring_link_multipliers": list(self.ring_link_multipliers),
            "coll_straggler_rank": self.coll_straggler_rank,
            "coll_straggler_factor": self.coll_straggler_factor,
            "cross_node_bw_multiplier": self.cross_node_bw_multiplier,
            "coll_algo": self.coll_algo,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterScenario":
        return cls(**data)


#: Named presets (the ``repro simulate --preset`` choices).
SCENARIOS: dict[str, ClusterScenario] = {
    s.name: s
    for s in (
        ClusterScenario(
            "uniform",
            "identical stages, free messages, pristine rings — must reproduce Eq. 4-7 exactly",
        ),
        ClusterScenario(
            "straggler",
            "last-stage GPU throttled to 1.5x compute time",
            straggler_stage=-1,
            straggler_factor=1.5,
        ),
        ClusterScenario(
            "slow-link",
            "one congested inter-stage link at 4x message time",
            slow_link=1,
            slow_link_factor=4.0,
            base_msg_time=0.25,
        ),
        ClusterScenario(
            "skewed",
            "linearly skewed stage loads (back stages 1.4x the front)",
            compute_skew=0.4,
        ),
        ClusterScenario(
            "contention",
            "messages serialize on shared half-duplex links",
            link_contention=True,
            base_msg_time=0.6,
        ),
        ClusterScenario(
            "degraded-ring",
            "cross-node allreduce rings run at half bandwidth",
            cross_node_bw_multiplier=0.5,
        ),
        ClusterScenario(
            "ring-straggler",
            "one data-parallel rank stalls every allreduce step to 1.75x",
            coll_straggler_rank=0,
            coll_straggler_factor=1.75,
        ),
        ClusterScenario(
            "slow-ring-link",
            "one quarter-bandwidth ring link paces the whole allreduce",
            ring_link_multipliers=(0.25, 1.0, 1.0, 1.0),
        ),
        ClusterScenario(
            "degraded",
            "straggler GPU plus halved cross-node rings (compound outage)",
            straggler_stage=-1,
            straggler_factor=1.5,
            cross_node_bw_multiplier=0.5,
        ),
        ClusterScenario(
            "hierarchical",
            "two-level allreduce: NVLink reduce-scatter, cross-node ring, NVLink allgather",
            coll_algo="hierarchical",
        ),
        ClusterScenario(
            "hierarchical-degraded",
            "two-level allreduce on a fabric with halved cross-node bandwidth",
            coll_algo="hierarchical",
            cross_node_bw_multiplier=0.5,
        ),
    )
}


def get_scenario(scenario: "str | ClusterScenario | None") -> ClusterScenario | None:
    """Resolve a scenario given by name, instance, or None."""
    if scenario is None or isinstance(scenario, ClusterScenario):
        return scenario
    try:
        return SCENARIOS[scenario]
    except KeyError:
        raise ValueError(
            f"unknown scenario {scenario!r}; presets: {sorted(SCENARIOS)}"
        ) from None


def resolve_fidelity(
    fidelity: "str | None",
    scenario: "str | ClusterScenario | None",
    default: str = "analytic",
    overlap: bool = False,
    placement: str = "block",
) -> "tuple[str, ClusterScenario | None]":
    """The one fidelity/scenario validation every entry point shares.

    ``fidelity=None`` means the caller left it unspecified: a scenario —
    or any other knob only the event engine can honour
    (``overlap=True``, ``placement="best"``) — then implies the
    event-driven ``"sim"`` engine, and otherwise it falls back to
    ``default``. An *explicit* ``"analytic"`` together with one of those
    knobs is a contradiction — the closed form cannot price degraded
    machines, comm/compute overlap, or optimized placements — and raises
    instead of being silently rewritten.
    """
    if placement not in PLACEMENTS:
        raise ValueError(
            f"unknown placement {placement!r}; choose from {PLACEMENTS}"
        )
    scenario = get_scenario(scenario)
    needs_engine = scenario is not None or overlap or placement == "best"
    if fidelity is None:
        return ("sim" if needs_engine else default), scenario
    if fidelity == "analytic":
        if scenario is not None:
            raise ValueError(
                "heterogeneity scenarios need the event-driven engine; "
                "use fidelity='sim'"
            )
        if overlap:
            raise ValueError(
                "allreduce/drain overlap needs the event-driven engine; "
                "use fidelity='sim'"
            )
        if placement == "best":
            raise ValueError(
                "placement optimization needs the event-driven engine; "
                "use fidelity='sim'"
            )
    return fidelity, scenario


@functools.lru_cache(maxsize=64)
def _topology(n_gpus: int, cal: SummitCalibration) -> Topology:
    """Topologies are pure in (n_gpus, cal); reuse them across the
    planner's hundreds of candidate evaluations."""
    return Topology(n_gpus, cal)


#: Partition memo. ModelSpec is not hashable (mutable layer list), so the
#: key is the same name+shape signature the autotune evaluation cache
#: uses to identify specs, plus the partition mode and (for time mode)
#: the scenario's per-stage rate vector. Cardinality is (models x
#: pipeline depths x rate vectors) — tiny — and concurrent planner
#: threads at worst recompute a pure value.
_partition_memo: dict[tuple, PartitionPlan] = {}


def _partition(
    spec: ModelSpec,
    g_inter: int,
    mode: str = "flops",
    stage_rates: tuple[float, ...] | None = None,
) -> PartitionPlan:
    key = (
        spec.name,
        spec.param_count,
        spec.batch_size,
        spec.num_layers,
        g_inter,
        mode,
        stage_rates,
    )
    plan = _partition_memo.get(key)
    if plan is None:
        plan = _partition_memo[key] = balanced_partition(
            spec, g_inter, mode=mode, stage_rates=stage_rates
        )
    return plan


def stage_payload_fractions(
    spec: ModelSpec,
    g_inter: int,
    partition_mode: str = "flops",
    scenario: "ClusterScenario | None" = None,
) -> tuple[float, ...]:
    """Each stage's share of the data-parallel gradient payload.

    Resolved from the same memoised :class:`PartitionPlan` the pipeline
    engines run on (including the time-balanced plan under a scenario),
    so the overlap model's per-stage all-reduce payloads can never
    disagree with the schedule that produced the trace. Stage ``s``'s
    share is its raw parameter fraction — sparse modes prune every stage
    at the same rate in this model, so parameter shares and compressed
    payload shares coincide.
    """
    stage_rates = None
    if partition_mode == "time" and scenario is not None:
        stage_rates = tuple(scenario.scale_stage_times([1.0] * g_inter))
    plan = _partition(spec, g_inter, partition_mode, stage_rates)
    return tuple(plan.param_fractions)


# ---------------------------------------------------------------------------
# allreduce/drain overlap
# ---------------------------------------------------------------------------

#: default bucket count for the overlapped data-parallel all-reduce
OVERLAP_BUCKETS = 8


@dataclass(frozen=True)
class OverlapReport:
    """Event-timeline accounting of an overlapped data-parallel all-reduce.

    ``additive`` is what the additive model charges (the full collective
    serialized after the pipeline flush); ``exposed`` is what the event
    timeline leaves visible beyond the pipeline makespan; ``hidden`` is
    their difference. ``hideable_window`` is the engine's hiding budget
    ``D`` — the span from the earliest moment any gradient bucket can be
    final (the start of the earliest stage's last backward task) to the
    pipeline makespan — so with uniform stage payloads ``max(0, additive
    - hideable_window) <= exposed < additive`` always holds (with >= 2
    buckets and non-zero backward time; one bucket degenerates to the
    additive sum). With per-stage payload fractions a param-heavy stage
    can push ``exposed`` past the uniform ``additive`` charge (``hidden``
    goes negative) — the accounting identity ``exposed + hidden ==
    additive`` holds either way.
    """

    additive: float
    exposed: float
    hidden: float
    hideable_window: float
    finish: float
    n_buckets: int
    per_stage_exposed: tuple[float, ...]


def overlap_exposed_collective(
    trace: PipelineTrace,
    comm_time: float,
    n_buckets: int = OVERLAP_BUCKETS,
    stage_fractions: "tuple[float, ...] | None" = None,
) -> OverlapReport:
    """Exposed data-parallel all-reduce time when overlapped with the drain.

    AxoNN hides bucketed gradient all-reduces behind pipeline compute:
    stage ``s``'s gradients are final once its *last* backward microbatch
    has passed over them, which happens while downstream work is still
    draining. This function replays that on the event timeline of a
    finished pipeline schedule, from each stage's last backward task
    (:attr:`PipelineTrace.drain <repro.parallel.pipeline.PipelineTrace.drain>`):

    * stage ``s``'s payload splits into ``n_buckets`` buckets; the
      backward sweeps the stage's layers in reverse, so bucket ``j``
      becomes final ``(j+1)/K`` of the way through the stage's last
      backward task;
    * each stage's data-parallel ring is a FIFO
      :class:`~repro.cluster.events.SerialResource`; for stages below the
      top the ring's NIC is first occupied by the stage's final upstream
      gradient message — the all-reduce *contends with the pipeline
      drain* on the cross-node link instead of teleporting past it;
    * every bucket costs ``comm_time / K`` (the one-shot collective split
      evenly — NCCL pipelines bucketed collectives, so the per-bucket
      latency overhead is not re-charged).

    The exposed time is whatever the last bucket leaves sticking out past
    the pipeline makespan, floored at zero. ``n_buckets=1`` (gradients
    only final at the very end, sent as one message) reproduces the
    additive sum exactly; more buckets hide more, but never more than the
    ``hideable_window`` documented on :class:`OverlapReport`.

    ``stage_fractions`` refines the uniform-shard assumption: stage
    ``s``'s all-reduce busy time scales to ``comm_time * fractions[s] *
    g`` (each stage rings its *own* gradient payload — ``comm_time`` is
    priced for the uniform ``φ/G_inter`` shard, so the uniform fraction
    ``1/g`` reproduces the default exactly). Pass
    :func:`stage_payload_fractions` to weight each stage by its actual
    parameter share from the partition plan. ``additive`` keeps the
    uniform-shard charge (what the non-overlapped model bills), so a
    heavily skewed partition can in principle expose more than
    ``additive`` — the uniform additive model under-charges the heavy
    stage.
    """
    if n_buckets < 1:
        raise ValueError(f"n_buckets must be >= 1, got {n_buckets}")
    if comm_time < 0:
        raise ValueError(f"comm_time must be non-negative, got {comm_time}")
    g = trace.g_inter
    if stage_fractions is None:
        stage_comm = [comm_time] * g
    else:
        if len(stage_fractions) != g:
            raise ValueError(
                f"stage_fractions has {len(stage_fractions)} entries "
                f"for a {g}-stage trace"
            )
        if any(f < 0 for f in stage_fractions):
            raise ValueError(f"stage_fractions must be non-negative, got {stage_fractions}")
        stage_comm = [comm_time * f * g for f in stage_fractions]
    if len(trace.drain) != g:
        raise ValueError(f"trace records {len(trace.drain)} drain windows for {g} stages")
    hideable = trace.makespan - min(b_start for b_start, _b_end in trace.drain)
    if comm_time == 0.0:
        return OverlapReport(0.0, 0.0, 0.0, hideable, trace.makespan, n_buckets, (0.0,) * g)

    loop = EventLoop()
    finish = [0.0] * g
    rings: list[SerialResource] = []
    for s, (b_start, b_end) in enumerate(trace.drain):
        ring = SerialResource(f"dp-ring/stage{s}", record=True)
        rings.append(ring)
        if s > 0 and trace.link_times:
            # the stage's final activation-gradient send to stage s-1 books
            # the NIC first: buckets queue behind the drain message
            ring.acquire(0.0, b_end + trace.link_times[s - 1], "drain")
        t_last = b_end - b_start
        bucket_cost = stage_comm[s] / n_buckets
        for j in range(n_buckets):
            ready = b_end - t_last * (n_buckets - 1 - j) / n_buckets

            def fire(ring=ring, s=s, j=j, bucket_cost=bucket_cost):
                _, end = ring.acquire(loop.now, bucket_cost, f"bucket{j}")
                finish[s] = max(finish[s], end)

            loop.at(ready, fire)
    loop.run()

    per_stage = tuple(max(0.0, f - trace.makespan) for f in finish)
    exposed = max(per_stage)
    if OBS.enabled:
        _emit_overlap_spans(rings, trace.makespan)
    return OverlapReport(
        additive=comm_time,
        exposed=exposed,
        hidden=comm_time - exposed,
        hideable_window=hideable,
        finish=max(finish),
        n_buckets=n_buckets,
        per_stage_exposed=per_stage,
    )


def _emit_overlap_spans(rings: "list[SerialResource]", makespan: float) -> None:
    """Emit each ring's booked windows as virtual-time spans.

    Hidden vs exposed is only known post-hoc (a bucket is *hidden* when
    its window closes before the pipeline makespan), so spans are built
    from the recorded windows after the run rather than inside
    ``acquire``. One track per stage ring, grouped so repeated overlap
    runs inside a trace stay distinct.
    """
    tracer = OBS.tracer
    grp = tracer.group("allreduce")
    hidden = exposed = 0
    for s, ring in enumerate(rings):
        track = f"{grp}/ring{s}"
        for start, end, label in ring.windows or ():
            if label == "drain":
                category = "allreduce.drain"
            elif end <= makespan:
                category = "allreduce.hidden"
                hidden += 1
            else:
                category = "allreduce.exposed"
                exposed += 1
            tracer.record(label, start, end, category=category, track=track)
    OBS.metrics.counter("overlap.buckets.hidden").inc(hidden)
    OBS.metrics.counter("overlap.buckets.exposed").inc(exposed)


def _chain_inputs(
    spec: ModelSpec,
    g_inter: int,
    mbs: int,
    t_f_model: float,
    t_b_model: float,
    partition_mode: str,
    scenario: "ClusterScenario | None",
) -> "tuple[list[float], list[float], list[int], bool]":
    """Scenario-scaled per-stage times + cut payloads shared by the
    heterogeneous engine and the placement optimizer (so the two can
    never price the same chain differently)."""
    stage_rates = None
    if partition_mode == "time" and scenario is not None:
        stage_rates = tuple(scenario.scale_stage_times([1.0] * g_inter))
    plan = _partition(spec, g_inter, partition_mode, stage_rates)
    t_f_stages, t_b_stages = plan.stage_times(t_f_model, t_b_model)
    cut_payloads = [
        pipeline_message_bytes(mbs, spec.stage_boundary_message_elems(b))
        for b in plan.boundaries[1:-1]
    ]
    contention = False
    if scenario is not None:
        t_f_stages = scenario.scale_stage_times(t_f_stages)
        t_b_stages = scenario.scale_stage_times(t_b_stages)
        contention = scenario.link_contention
    return t_f_stages, t_b_stages, cut_payloads, contention


def simulate_hetero_pipeline(
    spec: ModelSpec,
    *,
    g_inter: int,
    m: int,
    mbs: int,
    t_f_model: float,
    t_b_model: float,
    n_gpus: int | None = None,
    g_tensor: int = 1,
    cal: SummitCalibration = SUMMIT,
    scenario: "str | ClusterScenario | None" = None,
    blocking_sends: bool = False,
    partition_mode: str = "flops",
    placement: str = "block",
) -> PipelineTrace:
    """Run the Figure-3 engine with model- and topology-derived inputs.

    Per-stage compute times come from the partitioner's actual stage
    loads (``balanced_partition``; ``partition_mode="time"`` balances
    time-under-scenario instead of raw flops), per-link message times
    from the cluster topology with each cut's real activation payload,
    and the scenario transform is applied on top.

    Every data-parallel replica prices its own stage chain: replica
    ``r`` occupies ranks ``[r·mpd, (r+1)·mpd)`` with stage ``s`` rooted
    at ``r·mpd + s·g_tensor`` (``mpd = g_inter·g_tensor``), so a chain
    that straddles a node boundary pays cross-node link costs even when
    replica 0's chain is all-NVLink. The returned trace is the slowest
    replica's schedule — the one the synchronous data-parallel step
    waits for — with ``n_replicas``/``slowest_replica`` recording the
    placement sweep.

    ``placement="best"`` replaces the default contiguous block layout
    with the :mod:`repro.parallel.placement` optimizer's assignment
    (greedy node packing plus local swaps, minimizing the slowest
    replica's chain time under this same scenario); ``"block"`` keeps the
    historical layout bit-for-bit.
    """
    if placement not in PLACEMENTS:
        raise ValueError(f"unknown placement {placement!r}; choose from {PLACEMENTS}")
    scenario = get_scenario(scenario)
    t_f_stages, t_b_stages, cut_payloads, contention = _chain_inputs(
        spec, g_inter, mbs, t_f_model, t_b_model, partition_mode, scenario
    )

    mpd = g_inter * g_tensor
    if g_inter > 1:
        topo = _topology(n_gpus or mpd, cal)
        n_replicas = max(topo.n_gpus // mpd, 1)
        if placement == "best":
            from .placement import place_replicas  # deferred: placement wraps this module

            placed = place_replicas(
                spec,
                g_inter=g_inter,
                m=m,
                mbs=mbs,
                t_f_model=t_f_model,
                t_b_model=t_b_model,
                n_gpus=n_gpus,
                g_tensor=g_tensor,
                cal=cal,
                scenario=scenario,
                blocking_sends=blocking_sends,
                partition_mode=partition_mode,
                # hot path (one call per planner candidate): search on a
                # truncated batch, full-m verdict inside place_replicas
                search_microbatches=max(4 * g_inter, 16),
            )
            replica_ranks = [list(r) for r in placed.placement.replicas]
        else:
            replica_ranks = [
                topo.replica_pipeline_ranks(r, g_inter, g_tensor)
                for r in range(n_replicas)
            ]
        # Replicas at the same node offset share a link-time profile, so
        # the sweep dedupes to at most gpus_per_node distinct schedules.
        profiles: dict[tuple[float, ...], int] = {}
        for r, ranks in enumerate(replica_ranks):
            profiles.setdefault(tuple(topo.pipeline_link_times(ranks, cut_payloads)), r)
    else:
        n_replicas = max((n_gpus or mpd) // mpd, 1)
        profiles = {(): 0}

    slowest: PipelineTrace | None = None
    for profile, replica in profiles.items():
        link_times = list(profile)
        if scenario is not None:
            link_times = scenario.scale_link_times(link_times)
        # a chain the placement verdict already simulated at full m is a
        # hit in the schedule memo
        trace = simulate_pipeline(
            g_inter,
            m,
            t_f_stage=t_f_stages,
            t_b_stage=t_b_stages,
            msg_time=link_times if link_times else 0.0,
            blocking_sends=blocking_sends,
            link_contention=contention,
        )
        if slowest is None or trace.makespan > slowest.makespan:
            slowest = trace
            slowest.slowest_replica = replica
    slowest.n_replicas = n_replicas
    return slowest


def compare_partition_modes(
    spec: ModelSpec,
    scenario: "str | ClusterScenario | None",
    *,
    g_inter: int,
    m: int,
    mbs: int = 1,
    t_f_model: float,
    t_b_model: float,
    n_gpus: int | None = None,
    cal: SummitCalibration = SUMMIT,
) -> dict[str, PipelineTrace]:
    """Price one scenario under flops- and time-balanced partitions.

    Returns ``{"flops": trace, "time": trace}`` from identical inputs so
    the makespans are directly comparable — the CLI's evidence that
    rebalancing stage boundaries against time-under-scenario pays.
    """
    return {
        mode: simulate_hetero_pipeline(
            spec,
            g_inter=g_inter,
            m=m,
            mbs=mbs,
            t_f_model=t_f_model,
            t_b_model=t_b_model,
            n_gpus=n_gpus,
            cal=cal,
            scenario=scenario,
            partition_mode=mode,
        )
        for mode in ("flops", "time")
    }


def run_scenario(
    scenario: "str | ClusterScenario",
    g_inter: int = 4,
    n_microbatches: int = 8,
    t_f: float = 1.0,
    t_b: float = 2.0,
    msg_time: float | None = None,
    prefer_backward: bool = True,
) -> tuple[PipelineTrace, dict]:
    """Run one preset on a synthetic uniform baseline (the CLI path).

    ``t_f``/``t_b`` are the *uniform per-stage* baseline times the
    scenario deviates from; ``msg_time`` defaults to the preset's
    recommended base. Returns the trace plus a summary dict with the
    uniform-limit Eq. 6-7 reference for comparison and — for presets
    that degrade the collective phase — the slowdown of a reference
    data-parallel allreduce (100 MiB over 8 ranks).
    """
    sc = get_scenario(scenario)
    base_msg = sc.base_msg_time if msg_time is None else msg_time
    t_f_stages = sc.scale_stage_times([t_f] * g_inter)
    t_b_stages = sc.scale_stage_times([t_b] * g_inter)
    link_times = sc.scale_link_times([base_msg] * max(g_inter - 1, 0))
    trace = simulate_pipeline(
        g_inter,
        n_microbatches,
        t_f_stage=t_f_stages,
        t_b_stage=t_b_stages,
        msg_time=link_times if link_times else 0.0,
        prefer_backward=prefer_backward,
        link_contention=sc.link_contention,
    )
    eq7 = bubble_time(g_inter, t_f * g_inter, t_b * g_inter)
    ref_bytes, ref_group = 100 * 2**20, 8
    ar_base = ring_allreduce_time(ref_bytes, ref_group)
    # the dispatcher honours the scenario's coll_algo knob, so presets
    # like "hierarchical" report their schedule's time (a speedup shows
    # as a slowdown factor below 1)
    ar_scenario = allreduce_time(ref_bytes, ref_group, scenario=sc)
    summary = {
        "scenario": sc.name,
        "description": sc.description,
        "g_inter": g_inter,
        "n_microbatches": n_microbatches,
        "makespan": trace.makespan,
        "mean_idle": trace.mean_idle_time(),
        "max_idle": trace.max_idle_time(),
        "eq7_bubble": eq7,
        "t_f_stages": t_f_stages,
        "t_b_stages": t_b_stages,
        "link_times": link_times,
        "allreduce_ref": ar_base,
        "allreduce_scenario": ar_scenario,
        "allreduce_slowdown": ar_scenario / ar_base,
    }
    return trace, summary
