"""Event-driven simulation of the inter-layer (pipeline) schedule.

Reproduces the paper's Figure 3 mechanics: ``G_inter`` GPUs process ``m``
microbatches with 1F1B-style message-driven scheduling (backward work is
preferred when available — AxoNN's message-driven scheduler behaves this
way in steady state). Produces a full schedule trace for visualisation and
per-GPU busy/idle accounting whose idle time matches the paper's Eq. 6-7
bubble formula when messages are free and stages uniform.

Beyond the paper's uniform-stage setting the engine is
**heterogeneity-aware**: ``t_f_stage``/``t_b_stage`` accept per-stage
sequences (straggler GPUs, skewed flops partitions), ``msg_time`` accepts
a per-link sequence (NVLink hops inside a node vs InfiniBand hops across
nodes, derived from :meth:`repro.cluster.Topology.pipeline_link_times`),
and ``link_contention=True`` serializes messages that share a link
(half-duplex: the forward activation and backward gradient crossing the
same stage boundary queue behind each other).

The kernel is a pure function of its inputs, and planners ask for the
same chains again and again: a question's sparsity moves no stage or
link time, so a fresh sparsity prices chains already priced. Untraced
calls to :func:`simulate_pipeline` therefore answer through
:data:`SCHEDULE_CACHE`, a bounded memo of each chain's summary; a hit
re-derives its task rows only if something reads them.
"""

from __future__ import annotations

import threading
from array import array
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from itertools import chain
from math import ceil, floor
from typing import Sequence

from ..obs import OBS

__all__ = ["TaskRecord", "PipelineTrace", "ScheduleCache", "SCHEDULE_CACHE", "simulate_pipeline"]


@dataclass(frozen=True)
class TaskRecord:
    """One executed forward/backward task."""

    gpu: int
    kind: str  # 'F' or 'B'
    microbatch: int
    start: float
    end: float


@dataclass(eq=False)
class PipelineTrace:
    """Result of a pipeline simulation.

    The schedule itself is kept as compact rows; :attr:`tasks` and
    :attr:`link_windows` build their records on first read, so callers
    that only need the makespan (planner candidates, placement search)
    never pay for them. A trace answered from :data:`SCHEDULE_CACHE`
    carries no rows at all: the first read of :attr:`task_rows` or
    :attr:`window_rows` re-derives them by running the kernel on the
    trace's own inputs (no counter, no span). ``==`` and ``repr`` read
    the same whether or not that has happened.
    """

    g_inter: int
    n_microbatches: int
    makespan: float = 0.0
    #: per-GPU maximum of concurrently-held forward activations — the
    #: activation-memory proxy (1F1B bounds it at ``g_inter - stage``,
    #: GPipe-style unbounded scheduling lets it reach ``m``)
    peak_in_flight: list[int] = field(default_factory=list)
    #: the (possibly heterogeneous) per-stage compute times the run used
    t_f_stages: list[float] = field(default_factory=list)
    t_b_stages: list[float] = field(default_factory=list)
    #: per-link message transfer times (``g_inter - 1`` entries)
    link_times: list[float] = field(default_factory=list)
    #: per-link seconds the link spent occupied (contended runs only)
    link_busy: list[float] = field(default_factory=list)
    #: each stage's last backward task as ``(start, end)``: the drain
    #: window the overlap replay hides gradient buckets behind
    drain: list[tuple[float, float]] = field(default_factory=list, repr=False)
    #: data-parallel replicas whose chains were priced to produce this
    #: trace (``simulate_hetero_pipeline`` keeps the slowest replica's
    #: schedule; a bare ``simulate_pipeline`` call is one chain)
    n_replicas: int = 1
    #: index of the replica whose chain this trace belongs to
    slowest_replica: int = 0
    #: the four scheduling flags of the run, in signature order
    _flags: tuple = field(default=(False, True, True, False), repr=False)
    #: ``(task_rows, window_rows)`` once computed or re-derived
    _schedule: tuple | None = field(default=None, repr=False)

    __hash__ = None

    def _rows(self) -> tuple:
        schedule = self._schedule
        if schedule is None:
            schedule = self._schedule = _kernel(
                self.g_inter, self.n_microbatches, self.t_f_stages,
                self.t_b_stages, self.link_times, *self._flags,
            )[4:]
        return schedule

    @property
    def task_rows(self) -> list[tuple]:
        """Executed tasks as ``(gpu, kind, microbatch, start, end)`` rows
        in completion order."""
        return self._rows()[0]

    @property
    def window_rows(self) -> list[list[tuple]]:
        """Per-link transfer windows as ``(start, end, kind, microbatch)`` rows."""
        return self._rows()[1]

    def _fields(self) -> tuple:
        return (
            self.g_inter, self.n_microbatches, self.makespan, self.peak_in_flight,
            self.t_f_stages, self.t_b_stages, self.link_times, self.link_busy,
            self.drain, self.n_replicas, self.slowest_replica,
            self.task_rows, self.window_rows,
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    @cached_property
    def tasks(self) -> list[TaskRecord]:
        """Every executed task, in completion order."""
        return [TaskRecord(*row) for row in self.task_rows]

    @cached_property
    def link_windows(self) -> list[list[tuple[float, float, str]]]:
        """Per-link ``(start, end, label)`` transfer windows — the one
        source of truth both :meth:`ascii` (``links=True``) and the
        Chrome exporter render from."""
        return [
            [(start, end, f"{kind}{mb}") for start, end, kind, mb in rows]
            for rows in self.window_rows
        ]

    def gpu_tasks(self, gpu: int) -> list[TaskRecord]:
        return sorted((t for t in self.tasks if t.gpu == gpu), key=lambda t: t.start)

    def busy_time(self, gpu: int) -> float:
        return sum(t.end - t.start for t in self.gpu_tasks(gpu))

    def idle_time(self, gpu: int) -> float:
        """Idle (bubble + message wait) within the batch span."""
        return self.makespan - self.busy_time(gpu)

    def mean_idle_time(self) -> float:
        return sum(self.idle_time(g) for g in range(self.g_inter)) / self.g_inter

    def max_idle_time(self) -> float:
        return max(self.idle_time(g) for g in range(self.g_inter))

    def ascii(self, time_unit: float, links: bool = False) -> str:
        """Render the schedule like the paper's Figure 3.

        Each column is ``time_unit`` seconds; forward cells print the
        microbatch id, backward cells print it bracketed. The column
        count rounds the makespan *up* so tasks ending inside a partial
        final interval still render. ``links=True`` adds one row per
        stage-boundary link rendered from the same recorded
        ``link_windows`` the Chrome exporter reads (``###`` marks an
        occupied column).
        """
        lines = []
        n_cols = max(1, ceil(self.makespan / time_unit - 1e-9))
        for g in range(self.g_inter):
            row = ["  ."] * n_cols
            for t in self.gpu_tasks(g):
                c0 = floor(t.start / time_unit + 1e-9)
                c1 = ceil(t.end / time_unit - 1e-9)
                for c in range(c0, min(c1, n_cols)):
                    cell = f"{t.microbatch:>3}" if t.kind == "F" else f"[{t.microbatch}]".rjust(3)
                    row[c] = cell
            lines.append(f"GPU {g}: " + "".join(row))
        if links:
            for i, windows in enumerate(self.link_windows):
                row = ["  ."] * n_cols
                for start, end, _label in windows:
                    c0 = floor(start / time_unit + 1e-9)
                    c1 = ceil(end / time_unit - 1e-9)
                    for c in range(c0, min(c1, n_cols)):
                        row[c] = "###"
                lines.append(f"LNK {i}: " + "".join(row))
        return "\n".join(lines)


#: event kinds on the 1F1B kernel's heap, indexing their span names
_START, _DONE, _ARRIVE, _RELEASE = range(4)
_EVENT_NAMES = ("start", "compute_done", "arrive", "release")

#: chains :data:`SCHEDULE_CACHE` keeps: sim-cold's working set is 132
#: chains and one best-placement search of gpt3-13b on 64 GPUs 866; an
#: entry is 0.76-2.7 kB (G_inter 8 to 43, the deepest chain the planner
#: builds), so a full cache holds at most 2.7 MiB, under 5% of a server
SCHEDULE_CACHE_ENTRIES = 1024


class ScheduleCache:
    """A bounded, thread-safe LRU of simulated 1F1B chains.

    Keyed on the kernel's complete normalized input: ``g_inter``,
    ``n_microbatches``, the bytes of the per-stage ``t_f``/``t_b`` and
    per-link times as doubles, and the four scheduling flags. Each entry
    is a slim summary packed as doubles (makespan, peak in-flight, link
    busy time, each stage's drain window), never task rows; the least
    recently used chain is dropped past ``max_entries``. Racing misses on
    one key both run the kernel and store equal summaries.
    """

    def __init__(self, max_entries: int):
        self.max_entries = max_entries
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: tuple) -> array | None:
        with self._lock:
            summary = self._entries.get(key)
            if summary is not None:
                self._entries.move_to_end(key)
            return summary

    def put(self, key: tuple, summary: array) -> None:
        with self._lock:
            self._entries[key] = summary
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


#: the process-wide schedule memo behind :func:`simulate_pipeline`
SCHEDULE_CACHE = ScheduleCache(SCHEDULE_CACHE_ENTRIES)


def _per_stage(value: float | Sequence[float], n: int, name: str) -> list[float]:
    """Normalise a scalar-or-sequence time parameter to ``n`` floats."""
    if isinstance(value, (int, float)):
        out = [float(value)] * n
    else:
        out = [float(v) for v in value]
        if len(out) != n:
            raise ValueError(f"{name} has {len(out)} entries, expected {n}")
    for v in out:
        if v < 0:
            raise ValueError(f"{name} entries must be non-negative, got {v}")
    return out


def _n_events(g_inter: int, n_microbatches: int, blocking_sends: bool) -> int:
    """Events a complete chain processes: the opening ``start``, one
    ``compute_done`` per task, one ``arrive`` per message and, blocking,
    one ``release`` per message."""
    n_msgs = 2 * (g_inter - 1) * n_microbatches
    return 1 + 2 * g_inter * n_microbatches + n_msgs * (2 if blocking_sends else 1)


def simulate_pipeline(
    g_inter: int,
    n_microbatches: int,
    t_f_stage: float | Sequence[float],
    t_b_stage: float | Sequence[float],
    msg_time: float | Sequence[float] = 0.0,
    blocking_sends: bool = False,
    prefer_backward: bool = True,
    bound_in_flight: bool = True,
    link_contention: bool = False,
) -> PipelineTrace:
    """Simulate one batch through a ``g_inter``-stage pipeline.

    Parameters
    ----------
    g_inter:
        Pipeline depth (stages == GPUs).
    n_microbatches:
        Microbatches per batch shard (``m`` in the perf model).
    t_f_stage, t_b_stage:
        Per-stage forward/backward compute times of one microbatch.
        A scalar means uniform stages (the paper's setting); a sequence
        of length ``g_inter`` gives each stage its own time (straggler
        GPUs, skewed flops partitions).
    msg_time:
        Transfer time of one activation/gradient message between adjacent
        stages (0 isolates the pure bubble behaviour of Eq. 6-7). A
        sequence of length ``g_inter - 1`` prices each link separately
        (link ``i`` connects stages ``i`` and ``i + 1``).
    blocking_sends:
        AxoNN uses **asynchronous messaging** (paper Section II-E): a GPU
        hands its activation to the transport and immediately starts the
        next task (the default). With ``blocking_sends=True`` the sender
        stays busy for the transfer — the synchronous-pipeline behaviour
        AxoNN improves on.
    prefer_backward:
        AxoNN's **message-driven scheduling** prefers backward work in
        steady state (1F1B, the default). ``False`` processes work in
        plain arrival order, which delays downstream gradients and
        lengthens the drain phase.
    bound_in_flight:
        The 1F1B warmup window caps in-flight forwards at
        ``g_inter - stage`` (bounding activation memory). ``False``
        removes the cap — GPipe-style all-forwards-then-all-backwards,
        whose peak activation count grows with ``m`` instead.
    link_contention:
        Serialize messages sharing a stage-boundary link (half-duplex
        FIFO): a forward activation and a backward gradient crossing the
        same boundary — or two back-to-back sends from a stage faster
        than its link — queue instead of overlapping. The default keeps
        every transfer independent (full-duplex, infinite injection).

    The default configuration is AxoNN's; the flags exist so the
    scheduling ablation can price each optimization separately.

    The engine is one loop over a heap of plain
    ``(t, seq, op, stage, microbatch, start, kind)`` tuples: the opening
    ``start`` at t = 0, a task's compute finishing (``compute_done``), a
    message arriving (``arrive``) and a blocking send releasing its
    sender (``release``); after each, the event's stage picks its next
    task. Ties at equal ``t`` pop in push order (``seq``), so the
    schedule is deterministic. ``events.processed`` counts the popped
    events and, when tracing, each one becomes an ``event`` span.

    The kernel is a pure function of its normalized input, so untraced
    calls go through :data:`SCHEDULE_CACHE`: a chain asked before is
    answered from its summary (``pipeline.cache.hits``; the kernel runs
    on a ``pipeline.cache.misses``), and ``events.processed`` counts the
    chain's events either way. Rows of a hit are re-derived only when
    read. With a tracer installed the kernel always runs, so every call
    records its spans.
    """
    if g_inter < 1 or n_microbatches < 1:
        raise ValueError("g_inter and n_microbatches must be >= 1")
    t_f = _per_stage(t_f_stage, g_inter, "t_f_stage")
    t_b = _per_stage(t_b_stage, g_inter, "t_b_stage")
    link = _per_stage(msg_time, max(g_inter - 1, 0), "msg_time") if g_inter > 1 else []
    flags = (
        bool(blocking_sends), bool(prefer_backward), bool(bound_in_flight),
        bool(link_contention),
    )
    log = [] if OBS.enabled else None
    if log is None:
        key = (g_inter, n_microbatches, array("d", t_f + t_b + link).tobytes(), *flags)
        summary = SCHEDULE_CACHE.get(key)
    else:
        summary = None
    metrics = OBS.metrics
    if summary is None:
        makespan, peak, link_busy, drain, rows, windows = _kernel(
            g_inter, n_microbatches, t_f, t_b, link, *flags, log
        )
        schedule = (rows, windows)
        if log is None:
            metrics.counter("pipeline.cache.misses").inc()
            SCHEDULE_CACHE.put(
                key, array("d", [makespan, *peak, *link_busy, *chain.from_iterable(drain)])
            )
    else:
        # unpack [makespan, peak x G, link busy x (G - 1), (start, end) x G]
        metrics.counter("pipeline.cache.hits").inc()
        values = summary.tolist()
        makespan = values[0]
        peak = [int(v) for v in values[1 : g_inter + 1]]
        link_busy = values[g_inter + 1 : 2 * g_inter]
        drain = list(zip(values[2 * g_inter :: 2], values[2 * g_inter + 1 :: 2]))
        schedule = None
    metrics.counter("events.processed").inc(_n_events(g_inter, n_microbatches, blocking_sends))
    trace = PipelineTrace(
        g_inter=g_inter,
        n_microbatches=n_microbatches,
        makespan=makespan,
        peak_in_flight=peak,
        t_f_stages=t_f,
        t_b_stages=t_b,
        link_times=link,
        link_busy=link_busy,
        drain=drain,
        _flags=flags,
        _schedule=schedule,
    )
    if log is not None:
        _emit_event_spans(log)
        _emit_pipeline_spans(trace)
    return trace


def _kernel(
    g_inter: int,
    n_microbatches: int,
    t_f: Sequence[float],
    t_b: Sequence[float],
    link: Sequence[float],
    blocking_sends: bool,
    prefer_backward: bool,
    bound_in_flight: bool,
    link_contention: bool,
    log: list | None = None,
) -> tuple:
    """The 1F1B loop on normalized inputs (see :func:`simulate_pipeline`).

    Returns ``(makespan, peak_in_flight, link_busy, drain, task_rows,
    window_rows)``; ``log``, when given, collects every popped event.
    Touches no counter and emits no span.
    """
    n_links = len(link)
    last = g_inter - 1
    # a stage may start a forward while it holds fewer than cap[g]; without
    # the 1F1B bound any waiting forward may start (fewer than m are held)
    if bound_in_flight:
        cap = [max(g_inter - g, 1) for g in range(g_inter)]
    else:
        cap = [n_microbatches] * g_inter

    # ready work per stage: backward-first keeps one FIFO per kind,
    # arrival-order service one FIFO of (kind, microbatch) for both
    fwd_ready = [deque() for _ in range(g_inter)]
    bwd_ready = [deque() for _ in range(g_inter)]
    arrivals: list[list[tuple[str, int]]] = [[] for _ in range(g_inter)]
    # Stage 0 starts with every microbatch available for forward.
    if prefer_backward:
        fwd_ready[0].extend(range(n_microbatches))
    else:
        arrivals[0] = [("F", mb) for mb in range(n_microbatches)]
    busy = [False] * g_inter
    in_flight = [0] * g_inter  # forwards not yet backwarded on this stage
    peak = [0] * g_inter
    free_at = [0.0] * n_links
    link_busy = [0.0] * n_links
    windows: list[list[tuple]] = [[] for _ in range(n_links)]
    rows: list[tuple] = []
    # each stage's last backward (start, end): a stage runs one task at a
    # time, so its last completion is the one that ends last
    drain: list = [None] * g_inter

    # every task finishes once and every message arrives (and, blocking,
    # releases its sender) once: exceeding this count is a kernel bug
    budget = _n_events(g_inter, n_microbatches, blocking_sends)
    # the opening event asks stage 0 for work at t = 0
    heap = [(0.0, 0, _START, 0, 0, 0.0, "F")]
    push, pop = heappush, heappop
    seq = 1
    t = 0.0
    for _ in range(budget):
        if not heap:
            break
        event = pop(heap)
        t, _seq, op, g, mb, start, kind = event
        if log is not None:
            log.append(event)
        if op == _DONE:
            if kind == "F":
                if g < last:
                    lnk, dest = g, g + 1
                else:
                    # last stage: backward starts immediately after forward
                    lnk = -1
                    if prefer_backward:
                        bwd_ready[g].append(mb)
                    else:
                        arrivals[g].append(("B", mb))
            elif g:
                lnk, dest = g - 1, g - 1
            else:
                lnk = -1
            if lnk >= 0:
                # Hand the message to the transport. Contended links book a
                # FIFO window; otherwise the transfer starts immediately
                # (full-duplex, so the window is recorded without queueing).
                d = link[lnk]
                if link_contention:
                    sent = max(t, free_at[lnk])
                    arrive = free_at[lnk] = sent + d
                    link_busy[lnk] += d
                    if d > 0:
                        windows[lnk].append((sent, arrive, kind, mb))
                else:
                    arrive = t + d
                    if arrive > t:
                        windows[lnk].append((t, arrive, kind, mb))
                push(heap, (arrive, seq, _ARRIVE, dest, mb, 0.0, kind))
                seq += 1
                if blocking_sends:
                    # Synchronous send: the GPU stays occupied (and its task
                    # record extends) until the transfer completes.
                    push(heap, (arrive, seq, _RELEASE, g, mb, start, kind))
                    seq += 1
                    continue
            rows.append((g, kind, mb, start, t))
            busy[g] = False
            if kind == "B":
                in_flight[g] -= 1
                drain[g] = (start, t)
        elif op == _ARRIVE:
            if not prefer_backward:
                arrivals[g].append((kind, mb))
            elif kind == "F":
                fwd_ready[g].append(mb)
            else:
                bwd_ready[g].append(mb)
        elif op == _RELEASE:
            rows.append((g, kind, mb, start, t))
            busy[g] = False
            if kind == "B":
                in_flight[g] -= 1
                drain[g] = (start, t)

        # stage g looks for its next task
        if busy[g]:
            continue
        if prefer_backward:
            if bwd_ready[g]:
                kind, mb = "B", bwd_ready[g].popleft()
            elif fwd_ready[g] and in_flight[g] < cap[g]:
                kind, mb = "F", fwd_ready[g].popleft()
            else:
                continue
        else:
            # Arrival-order (FIFO) service; a warmup-blocked forward at the
            # head lets later-arrived work run (no head-of-line deadlock).
            queue = arrivals[g]
            if not queue:
                continue
            if in_flight[g] < cap[g]:
                kind, mb = queue.pop(0)
            else:
                for i, item in enumerate(queue):
                    if item[0] == "B":
                        kind, mb = queue.pop(i)
                        break
                else:
                    continue
        busy[g] = True
        if kind == "F":
            dur = t_f[g]
            in_flight[g] += 1
            if in_flight[g] > peak[g]:
                peak[g] = in_flight[g]
        else:
            dur = t_b[g]
        push(heap, (t + dur, seq, _DONE, g, mb, t, kind))
        seq += 1

    if heap:
        raise RuntimeError(
            f"event budget exceeded ({budget}) after processing {budget} events; "
            f"likely a scheduling loop"
        )
    if len(rows) != 2 * g_inter * n_microbatches:
        raise RuntimeError(
            f"pipeline deadlock: executed {len(rows)} of "
            f"{2 * g_inter * n_microbatches} tasks"
        )
    return t, peak, link_busy, drain, rows, windows


def _emit_event_spans(log: list[tuple]) -> None:
    """One zero-length ``event`` span per processed event, in pop order,
    named for the event and carrying its heap ``seq``."""
    tracer = OBS.tracer
    track = tracer.group("events")
    for t, seq, op, *_rest in log:
        tracer.record(_EVENT_NAMES[op], t, t, category="event", track=track, seq=seq)


def _emit_pipeline_spans(trace: PipelineTrace) -> None:
    """Emit the finished schedule as virtual-time spans.

    One track per stage (``pipeline#k/stage0``, ...) and per link
    (``pipeline#k/link0``) — the ``group`` prefix keeps repeated runs
    inside one trace (every data-parallel replica profile) on their own
    tracks. Emission order is deterministic: stages then links, each
    sorted by start time.
    """
    tracer = OBS.tracer
    grp = tracer.group("pipeline")
    for g in range(trace.g_inter):
        track = f"{grp}/stage{g}"
        for t in trace.gpu_tasks(g):
            tracer.record(
                f"{t.kind}{t.microbatch}",
                t.start,
                t.end,
                category="pipeline.forward" if t.kind == "F" else "pipeline.backward",
                track=track,
                mb=t.microbatch,
            )
    for i, windows in enumerate(trace.link_windows):
        track = f"{grp}/link{i}"
        for start, end, label in sorted(windows):
            tracer.record(
                label or "msg", start, end, category="link", track=track
            )
