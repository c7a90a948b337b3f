"""``measured`` fidelity: execute the schedule, then price the ledger.

Every other fidelity in the registry prices the paper's cost model
against itself. This one closes the loop with the *executable* stack:

1. **Execute.** :func:`execute_pipeline` runs the candidate's microbatch
   schedule — GPipe order, activation checkpointing, SAMO compression —
   on small synthetic tensors through
   :class:`~repro.parallel.pipeline_exec.PipelineStageTrainer` over the
   in-process :mod:`repro.comm.backend` thread ranks, and
   :func:`execute_grad_sync` runs the data-parallel
   :class:`~repro.parallel.pipeline_exec.BucketedGradSync`. Per-phase
   wall clock (forward, backward, p2p, collective) is timed under the
   :mod:`repro.obs` span machinery and kept on the profile.
2. **Replay.** The trainer's per-rank event ledger (``fwd``/``bwd``
   compute, tagged sends/recvs) is replayed deterministically by
   :func:`replay_events` with each op priced at the *model-scale* cost
   (``t_f``/``t_b`` from the device model, ``t_msg`` from the p2p
   model): what the execution contributes is the realized schedule
   structure — message counts, FIFO dependencies, warmup/drain idling,
   bucket sizes — not the host's wall clock.
3. **Project.** A scale mapping takes the small executed run onto the
   candidate's full GPU counts: phases linear in the microbatch count
   (compute, p2p) scale by ``m / m_exec``; the warmup/drain bubble
   scales by ``(g_inter - 1) / (g_exec - 1)`` (Eq. 7's structural
   factor); the data-parallel collective prices each *executed* bucket's
   fraction of the model-scale gradient payload. Tensor-parallel
   collectives are not executed and stay analytically priced.

Splitting wall clock (step 1) from pricing (steps 2-3) is what makes
``measured`` both a real execution *and* byte-deterministic per seed —
the drift report (:mod:`repro.autotune.drift`) depends on the latter,
while :func:`measure_comm_samples` +
:func:`repro.cluster.calibration.fit_calibration` consume the former.

Scenarios are rejected (an executed schedule has no degraded-machine
knob), mirroring the analytic estimator's contract.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from ..cluster.calibration import SUMMIT, CommSample, SummitCalibration
from ..cluster.collectives import allreduce_time
from ..comm.backend import run_parallel
from ..core.config import SAMOConfig
from ..models.spec import ModelSpec
from ..parallel.data_parallel import gradient_bytes_per_gpu
from ..parallel.perf_model import microbatches_per_gpu
from ..parallel.pipeline_exec import (
    BucketedGradSync,
    PipelineStageTrainer,
    StageModule,
)
from ..parallel.scenarios import OVERLAP_BUCKETS, ClusterScenario
from .config import SPARSE_MODES, CandidateConfig
from .estimator import AnalyticEstimator, Evaluation, register_estimator

__all__ = [
    "MeasuredEstimator",
    "PipelineProfile",
    "CollectiveProfile",
    "ReplayResult",
    "execute_pipeline",
    "execute_grad_sync",
    "replay_events",
    "measure_comm_samples",
    "MAX_EXEC_STAGES",
    "MAX_EXEC_MICROBATCHES",
    "MAX_EXEC_REPLICAS",
]

#: hidden width of the executable proxy blocks (one Linear+GELU per stage)
PROXY_HID = 16
#: samples per proxy microbatch
PROXY_MB_SAMPLES = 2
#: stage-local magnitude-pruning level of the SAMO proxy state
PROXY_SPARSITY = 0.5
#: executable caps: a candidate's ``G_inter``/``m``/``G_data`` beyond
#: these run at the cap and project back up through the scale mapping
MAX_EXEC_STAGES = 6
MAX_EXEC_MICROBATCHES = 4
MAX_EXEC_REPLICAS = 4


def _derived_seeds(seed: int, *key: int) -> tuple[int, int]:
    """Two stable 32-bit seeds for (init, data) from ``seed`` + a shape key.

    Goes through :class:`numpy.random.SeedSequence` so distinct profile
    shapes get decorrelated streams while the whole tree stays pinned by
    one user-facing seed (the ``repro.rng`` discipline).
    """
    state = np.random.SeedSequence([int(seed), *map(int, key)]).generate_state(2)
    return int(state[0]), int(state[1])


# ---------------------------------------------------------------------------
# execution profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineProfile:
    """What one executed pipeline run measured.

    ``events`` (per rank, program order) and the op counts are
    deterministic per seed; ``wall_seconds`` is the host's per-phase
    wall clock (informational — never part of deterministic pricing).
    """

    g_exec: int
    m_exec: int
    events: tuple
    fwd_counts: tuple
    bwd_counts: tuple
    wall_seconds: tuple  # ((phase, seconds), ...) summed across ranks


@dataclass(frozen=True)
class CollectiveProfile:
    """What one executed bucketed grad-sync measured."""

    dp_exec: int
    n_buckets: int
    bucket_bytes: tuple
    bytes_communicated: int
    wall_seconds: float


@dataclass(frozen=True)
class ReplayResult:
    """Deterministic virtual timeline of an event ledger."""

    makespan: float
    busy_compute: tuple
    busy_message: tuple

    @property
    def max_busy(self) -> float:
        return max(
            c + m for c, m in zip(self.busy_compute, self.busy_message)
        )

    @property
    def max_message_seconds(self) -> float:
        return max(self.busy_message)


def execute_pipeline(
    g_inter: int,
    m: int,
    *,
    samo: bool = False,
    checkpoint: bool = False,
    seed: int = 0,
) -> PipelineProfile:
    """Run one GPipe-ordered training step on ``g_inter`` thread ranks.

    Each rank owns one ``Linear+GELU`` proxy block (identical seeded
    init everywhere, each rank keeping its slice — the test-suite
    convention), trains through the SAMO or dense mixed-precision state,
    and records its event ledger. Returns the per-rank ledgers plus op
    counts and per-phase wall clock.
    """
    if g_inter < 1:
        raise ValueError(f"g_inter must be >= 1, got {g_inter}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    from ..tensor import Tensor, functional as F

    init_seed, data_seed = _derived_seeds(
        seed, 1, g_inter, m, int(samo), int(checkpoint)
    )
    data_rng = np.random.default_rng(data_seed)
    n = m * PROXY_MB_SAMPLES
    x = data_rng.normal(size=(n, PROXY_HID)).astype(np.float32)
    y = data_rng.integers(0, PROXY_HID, size=n)
    mbs = [x[i * PROXY_MB_SAMPLES : (i + 1) * PROXY_MB_SAMPLES] for i in range(m)]
    tgts = [y[i * PROXY_MB_SAMPLES : (i + 1) * PROXY_MB_SAMPLES] for i in range(m)]

    def worker(comm):
        rng = np.random.default_rng(init_seed)
        blocks = [_proxy_block(rng) for _ in range(comm.size)]
        tr = PipelineStageTrainer(
            comm,
            [blocks[comm.rank]],
            head=(lambda b: Tensor(b)) if comm.rank == 0 else None,
            loss_head=(
                (lambda out, t: F.cross_entropy(out, t))
                if comm.rank == comm.size - 1
                else None
            ),
            samo_sparsity=PROXY_SPARSITY if samo else None,
            config=SAMOConfig(),
            checkpoint_segments=1 if checkpoint else 0,
            record_events=True,
        )
        tr.train_step(mbs, tgts, schedule="gpipe")
        return tuple(tr.events), dict(tr.phase_seconds)

    results = run_parallel(g_inter, worker)
    events = tuple(ev for ev, _ in results)
    wall: dict[str, float] = {}
    for _, phases in results:
        for phase, sec in phases.items():
            wall[phase] = wall.get(phase, 0.0) + sec
    return PipelineProfile(
        g_exec=g_inter,
        m_exec=m,
        events=events,
        fwd_counts=tuple(sum(e[0] == "fwd" for e in ev) for ev in events),
        bwd_counts=tuple(sum(e[0] == "bwd" for e in ev) for ev in events),
        wall_seconds=tuple(sorted(wall.items())),
    )


def execute_grad_sync(
    g_data: int,
    *,
    samo: bool = False,
    n_buckets: int = 4,
    seed: int = 0,
) -> CollectiveProfile:
    """Run one bucketed data-parallel all-reduce on ``g_data`` ranks.

    Every rank holds the same seeded proxy module, produces a gradient
    from rank-local data, and reduces through
    :class:`~repro.parallel.pipeline_exec.BucketedGradSync`. The bucket
    byte split the greedy bucketer *actually produced* is the
    measurement the collective pricing projects onto the model-scale
    payload.
    """
    if g_data < 2:
        raise ValueError(f"g_data must be >= 2, got {g_data}")
    from ..tensor import Tensor, functional as F

    init_seed, data_seed = _derived_seeds(seed, 2, g_data, int(samo), n_buckets)

    def worker(comm):
        rng = np.random.default_rng(init_seed)
        module = StageModule([_proxy_block(rng) for _ in range(3)])
        if samo:
            from ..core import SAMOTrainingState
            from ..pruning.magnitude import magnitude_prune

            mask = magnitude_prune(module, PROXY_SPARSITY)
            state = SAMOTrainingState(module, mask, SAMOConfig())
        else:
            from ..train.mixed_precision import DenseMixedPrecisionState

            state = DenseMixedPrecisionState(module, SAMOConfig())
        rank_rng = np.random.default_rng([data_seed, comm.rank])
        xb = rank_rng.normal(size=(4, PROXY_HID)).astype(np.float32)
        yb = rank_rng.integers(0, PROXY_HID, size=4)
        loss = F.cross_entropy(module(Tensor(xb)), yb)
        loss.backward()
        state.compress_gradients()
        sync = BucketedGradSync(comm, n_buckets=n_buckets)
        sync(state)
        return tuple(sync.bucket_bytes), sync.bytes_communicated, sync.seconds

    results = run_parallel(g_data, worker)
    bucket_bytes, total, _ = results[0]
    return CollectiveProfile(
        dp_exec=g_data,
        n_buckets=n_buckets,
        bucket_bytes=bucket_bytes,
        bytes_communicated=total,
        wall_seconds=sum(r[2] for r in results),
    )


def _proxy_block(rng):
    from ..tensor import GELU, Linear, Sequential

    return Sequential(Linear(PROXY_HID, PROXY_HID, rng=rng), GELU())


# ---------------------------------------------------------------------------
# deterministic replay
# ---------------------------------------------------------------------------

def replay_events(
    events, *, t_f: float, t_b: float, t_msg: float
) -> ReplayResult:
    """Replay per-rank event ledgers on a virtual clock.

    ``events[r]`` is rank ``r``'s program-order ledger from
    :class:`~repro.parallel.pipeline_exec.PipelineStageTrainer`
    (``record_events=True``). Compute ops cost ``t_f``/``t_b``; each
    send and each recv costs ``t_msg`` of link busy time on its endpoint
    (Eq. 9's four-messages-per-microbatch accounting for an interior
    GPU); a recv additionally waits for the matching send's completion
    through a per-``(src, dst, tag)`` FIFO — exactly the backend's
    matching rule, so warmup/drain and message-wait idling surface in
    the makespan. Pure function of its arguments: replays are
    byte-deterministic however the real threads interleaved.
    """
    from collections import deque

    n = len(events)
    clock = [0.0] * n
    ptr = [0] * n
    busy_compute = [0.0] * n
    busy_message = [0.0] * n
    arrivals: dict[tuple, deque] = {}
    remaining = sum(len(ev) for ev in events)
    while remaining:
        progressed = False
        for r in range(n):
            while ptr[r] < len(events[r]):
                ev = events[r][ptr[r]]
                kind = ev[0]
                if kind == "fwd":
                    clock[r] += t_f
                    busy_compute[r] += t_f
                elif kind == "bwd":
                    clock[r] += t_b
                    busy_compute[r] += t_b
                elif kind == "send":
                    clock[r] += t_msg
                    busy_message[r] += t_msg
                    arrivals.setdefault((r, ev[1], ev[2]), deque()).append(clock[r])
                elif kind == "recv":
                    queue = arrivals.get((ev[1], r, ev[2]))
                    if not queue:
                        break  # blocked on a send not yet replayed
                    clock[r] = max(clock[r], queue.popleft()) + t_msg
                    busy_message[r] += t_msg
                else:
                    raise ValueError(f"unknown event kind {kind!r}")
                ptr[r] += 1
                remaining -= 1
                progressed = True
        if remaining and not progressed:
            raise RuntimeError(
                "event replay deadlocked: a recv has no matching send "
                "(truncated or corrupted ledger)"
            )
    return ReplayResult(
        makespan=max(clock) if clock else 0.0,
        busy_compute=tuple(busy_compute),
        busy_message=tuple(busy_message),
    )


# ---------------------------------------------------------------------------
# wall-clock communication sampling
# ---------------------------------------------------------------------------

def measure_comm_samples(
    sizes=(256 * 1024, 1024 * 1024, 4 * 1024 * 1024),
    *,
    repeats: int = 3,
    group_size: int = 2,
) -> list[CommSample]:
    """Wall-clock :class:`~repro.cluster.calibration.CommSample` runs.

    Times the in-process backend itself: p2p samples are half the
    best-of-``repeats`` ping-pong round trip between two thread ranks,
    collective samples the best-of-``repeats`` ring all-reduce across
    ``group_size`` ranks. Feeding these to
    :func:`repro.cluster.calibration.fit_calibration` yields the *host
    transport's* alpha/beta (memcpy-class, far from Summit's) — the
    measurement path; the deterministic drift report uses the seeded
    synthetic sampler instead.
    """
    samples: list[CommSample] = []
    for nbytes in sizes:
        payload = np.zeros(max(nbytes // 4, 1), dtype=np.float32)

        def pingpong(comm, payload=payload):
            best = float("inf")
            for _ in range(repeats + 1):  # first lap warms the mailboxes
                t0 = time.perf_counter()
                if comm.rank == 0:
                    comm.send(1, payload, tag=1)
                    comm.recv(1, tag=2)
                else:
                    comm.recv(0, tag=1)
                    comm.send(0, payload, tag=2)
                best = min(best, time.perf_counter() - t0)
            return best

        rtt = max(run_parallel(2, pingpong))
        samples.append(CommSample("p2p", payload.nbytes, max(rtt / 2, 1e-9)))

        def ring(comm, payload=payload):
            best = float("inf")
            for _ in range(repeats + 1):
                t0 = time.perf_counter()
                comm.allreduce(payload)
                best = min(best, time.perf_counter() - t0)
            return best

        coll = max(run_parallel(group_size, ring))
        samples.append(
            CommSample(
                "collective", payload.nbytes, max(coll, 1e-9), group_size=group_size
            )
        )
    return samples


# ---------------------------------------------------------------------------
# the estimator
# ---------------------------------------------------------------------------

class MeasuredEstimator(AnalyticEstimator):
    """Price candidates from executed schedules (see the module docstring).

    Inherits the analytic per-op primitives (``_stage_times``,
    ``_boundary_message_time``, tensor-parallel collectives) and the
    cell assembly (``_cell``: memory model, shape, notes) — the measured
    phases replace the *structural* closed forms (Eqs. 7/9 and the
    monolithic all-reduce) with the executed schedule's replay, and its
    notes add ``g_exec``/``m_exec``/``seed``. ``evaluate`` is defined
    here, not inherited, so the traced launcher wraps each fidelity's
    own entry point once. ``seed`` pins the synthetic tensors and the SAMO
    masks; a non-default seed lands in the fidelity label so cache keys
    cannot alias runs of different seeds. Execution profiles are
    memoized per executable shape, so planning a whole search space
    triggers only a handful of real runs.
    """

    fidelity = "measured"
    supports_scenarios = False

    def __init__(
        self,
        spec: ModelSpec,
        cal: SummitCalibration = SUMMIT,
        scenario: ClusterScenario | str | None = None,
        seed: int = 0,
    ):
        super().__init__(spec, cal, scenario=scenario)
        self.seed = int(seed)
        if self.seed != 0:
            self.fidelity = f"measured[s{self.seed}]"
        self._profiles: dict = {}
        self._profiles_lock = threading.Lock()

    # -- profile memoisation ------------------------------------------------
    def _pipeline_profile(
        self, g_exec: int, m_exec: int, samo: bool, checkpoint: bool
    ) -> PipelineProfile:
        key = ("pipe", g_exec, m_exec, samo, checkpoint)
        with self._profiles_lock:
            prof = self._profiles.get(key)
        if prof is None:
            prof = execute_pipeline(
                g_exec, m_exec, samo=samo, checkpoint=checkpoint, seed=self.seed
            )
            with self._profiles_lock:
                prof = self._profiles.setdefault(key, prof)
        return prof

    def _collective_profile(self, dp_exec: int, samo: bool) -> CollectiveProfile:
        key = ("coll", dp_exec, samo)
        with self._profiles_lock:
            prof = self._profiles.get(key)
        if prof is None:
            prof = execute_grad_sync(
                dp_exec, samo=samo, n_buckets=OVERLAP_BUCKETS, seed=self.seed
            )
            with self._profiles_lock:
                prof = self._profiles.setdefault(key, prof)
        return prof

    # -- pricing ------------------------------------------------------------
    def evaluate(self, config: CandidateConfig) -> Evaluation:
        if self.spec.family == "cnn":
            return self._evaluate_cnn(config)
        cal = self.cal
        m = microbatches_per_gpu(self.spec.batch_size, config.g_data, config.mbs)
        t_f, t_b = self._stage_times(config)
        samo_exec = config.mode.value == "samo"
        g = config.g_inter

        if g > 1:
            g_exec = min(g, MAX_EXEC_STAGES)
            m_exec = min(m, MAX_EXEC_MICROBATCHES)
            t_msg = self._boundary_message_time(config)
            if config.framework == "deepspeed-3d":
                t_msg *= cal.deepspeed_p2p_penalty
            prof = self._pipeline_profile(
                g_exec, m_exec, samo_exec, config.checkpoint_activations
            )
            replay = replay_events(prof.events, t_f=t_f, t_b=t_b, t_msg=t_msg)
            scale_m = m / m_exec
            scale_g = (g - 1) / (g_exec - 1)
            p2p = replay.max_message_seconds * scale_m
            bubble = max(replay.makespan - replay.max_busy, 0.0) * scale_g
            if config.framework == "deepspeed-3d":
                bubble *= cal.deepspeed_bubble_penalty
        else:
            g_exec, m_exec = 1, 1
            prof = self._pipeline_profile(
                1, 1, samo_exec, config.checkpoint_activations
            )
            scale_m = float(m)
            p2p = bubble = 0.0
        compute = (
            max(prof.fwd_counts) * t_f + max(prof.bwd_counts) * t_b
        ) * scale_m
        coll = self._measured_collective(config)
        coll += self._tensor_parallel_collective(config, m)
        return self._cell(
            config, compute, self._compress_overhead(config, m), coll,
            p2p, bubble, m, t_f, t_b, g_exec=g_exec, m_exec=m_exec, seed=self.seed,
        )

    def _measured_collective(self, config: CandidateConfig) -> float:
        """Price the executed bucket split at the model-scale payload.

        Each bucket the executed :class:`BucketedGradSync` produced
        rings its byte *fraction* of the candidate's gradient payload
        across the candidate's full ``G_data`` — so bucket-count alpha
        overhead is measured, payload and group size stay model-scale.
        """
        if config.g_data <= 1:
            return 0.0
        sparse = config.mode in SPARSE_MODES
        payload = gradient_bytes_per_gpu(
            self.spec, config.model_parallel_degree, sparse, config.sparsity
        )
        prof = self._collective_profile(
            min(config.g_data, MAX_EXEC_REPLICAS),
            config.mode.value == "samo",
        )
        total = sum(prof.bucket_bytes)
        return sum(
            allreduce_time(
                max(round(b / total * payload), 1), config.g_data, self.cal
            )
            for b in prof.bucket_bytes
        )

    def _evaluate_cnn(self, config: CandidateConfig) -> Evaluation:
        """CNNs run pure data parallel: execute one local step plus the
        bucketed sync; compute units come from the conv efficiency curve
        (the analytic path's per-op primitive)."""
        samples_per_gpu, eff = self._cnn_batch(config)
        unit_f = self.spec.fwd_flops_per_sample() * samples_per_gpu / (
            self.device.peak_flops * eff
        )
        prof = self._pipeline_profile(1, 1, config.mode.value == "samo", False)
        compute = max(prof.fwd_counts) * unit_f + max(prof.bwd_counts) * 2.0 * unit_f
        backward_compute = max(prof.bwd_counts) * 2.0 * unit_f
        coll = 0.0
        if config.n_gpus > 1:
            raw = self._measured_collective(config)
            hidden = min(raw * self.cal.dp_overlap_fraction, backward_compute)
            coll = max(raw - hidden, 0.0)
        return self._cell(
            config, compute, self._compress_overhead(config, 1), coll, seed=self.seed
        )


@register_estimator("measured")
def _make_measured(
    spec, cal=SUMMIT, *, scenario=None, partition_mode="flops",
    overlap=False, placement="block", seed=0,
):
    if partition_mode != "flops":
        raise ValueError(
            "the measured fidelity executes the uniform-stage proxy; "
            "time-balanced partitioning needs fidelity='sim'"
        )
    if overlap or placement != "block":
        raise ValueError(
            "overlap and placement optimization need the event-driven "
            "engine; use fidelity='sim'"
        )
    return MeasuredEstimator(spec, cal, scenario=scenario, seed=seed)
