"""Batch evaluation engine — Eqs. 6-11 as array programs over the grid.

The planner used to price one ``(config, scenario)`` pair per Python
call; robust planning multiplies that by the scenario-set size. Every
term of the closed form is an elementwise expression in the candidate's
integer decomposition (``G_tensor``, ``G_inter``, ``G_data``, ``mbs``)
and a handful of per-scenario coefficients (ring-link multipliers,
stall factors, cross-node bandwidth), so the whole candidate grid ×
scenario set evaluates as one structure-of-arrays numpy program —
the lazy build→fuse→realize idiom from ROADMAP's open item.

This program prices both closed-form fidelities, ``analytic-batch`` and
``analytic`` (:class:`_Analytic`, under its own label). The scalar
:class:`~repro.autotune.estimator.AnalyticEstimator` stays the
reference: every array expression below mirrors the scalar formula
op-by-op (same association order, same int→float conversion points), so
each pristine-machine cell is the scalar path's bit for bit
(``tests/test_analytic_program.py``) and each scenario cell matches it to
~1e-9 relative tolerance (``tests/test_batch_eval.py``); both are
auditable via :func:`crosscheck_batch` or ``repro plan --compare-fidelities``.

Integer-exact quantities (model-state bytes, activation footprints,
gradient payloads — Eqs. 1-5) are computed with Python ints per
*distinct* knob combination and broadcast, so memory/feasibility are
bit-identical to the scalar path, not merely close.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass, field

import numpy as np

from ..cluster.calibration import SUMMIT, SummitCalibration
from ..cluster.p2p import p2p_message_time, pipeline_message_bytes
from ..models.spec import ModelSpec
from ..parallel.data_parallel import gradient_bytes_per_gpu
from ..parallel.partitioner import model_state_bytes
from ..parallel.perf_model import BatchBreakdown, ParallelConfig
from ..parallel.scenarios import ClusterScenario, get_scenario, resolve_fidelity
from .config import SPARSE_MODES, CandidateConfig
from .estimator import (
    AnalyticEstimator,
    Evaluation,
    activation_footprint_bytes,
    register_estimator,
)

__all__ = [
    "EvaluationBatch",
    "EvaluationView",
    "VectorizedAnalyticEstimator",
    "crosscheck_batch",
]

#: phase names shared by BatchBreakdown and the SoA arrays
PHASES = ("compute", "p2p", "bubble", "collective", "other")
#: every array field of an EvaluationBatch (read-only once built)
_ARRAYS = (*PHASES, "total", "memory_bytes", "feasible", "t_f", "t_b", "overhead", "microbatches")


# ---------------------------------------------------------------------------
# structure-of-arrays result
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvaluationBatch:
    """A config grid × scenario set costed as structure-of-arrays.

    Row ``i`` is ``configs[i]``, column ``j`` is ``scenarios[j]`` (a
    :class:`~repro.parallel.scenarios.ClusterScenario` or None for the
    pristine machine). Phase arrays are ``(n_configs, n_scenarios)``
    float64 seconds; memory and feasibility are per-config (the memory
    model — Eqs. 1-5 — does not depend on the scenario knobs).
    :attr:`total` is summed once, in ``BatchBreakdown.total``'s order,
    and every array is read-only once the batch is built.

    The planner publishes cells as :meth:`views`, which read their
    numbers from the arrays; cell ``(i, j)`` also materialises into the
    exact scalar :class:`~repro.autotune.estimator.Evaluation` via
    :meth:`evaluation`.
    """

    configs: tuple
    scenarios: tuple
    fidelity: str
    batch_size: int
    model: str
    compute: np.ndarray
    p2p: np.ndarray
    bubble: np.ndarray
    collective: np.ndarray
    other: np.ndarray
    memory_bytes: np.ndarray
    feasible: np.ndarray
    #: model family ("gpt"-like pipelined or "cnn") — selects the notes
    #: layout when a cell materialises back into a scalar Evaluation
    family: str = "gpt"
    #: per-config scalar-path note arrays, materialised lazily (building
    #: one dict per config up front would dominate the batch call)
    t_f: np.ndarray | None = None
    t_b: np.ndarray | None = None
    overhead: np.ndarray | None = None
    microbatches: np.ndarray | None = None
    #: batch seconds per cell, ``(n_configs, n_scenarios)``
    total: np.ndarray = field(init=False, repr=False, compare=False)
    #: shared by the breakdowns built from this batch: row index ->
    #: (ParallelConfig, notes), and decomposition -> ParallelConfig
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _pcfgs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # BatchBreakdown.total's association order, so a view's total is
        # the bits its materialised breakdown sums to
        object.__setattr__(
            self, "total", self.compute + self.p2p + self.bubble + self.collective + self.other
        )
        for name in _ARRAYS:
            array = getattr(self, name)
            if array is not None:
                array.flags.writeable = False

    @property
    def n_configs(self) -> int:
        return len(self.configs)

    @property
    def n_scenarios(self) -> int:
        return len(self.scenarios)

    def views(self, cells) -> list:
        """One :class:`EvaluationView` per ``(row, column)`` pair of ``cells``."""
        return [EvaluationView(self, i, j) for i, j in cells]

    def evaluation(self, i: int, j: int = 0) -> Evaluation:
        """Materialise cell ``(i, j)`` as a scalar :class:`Evaluation`."""
        return Evaluation(
            config=self.configs[i],
            breakdown=self.breakdown(i, j),
            memory_bytes=self.memory_bytes.item(i),
            feasible=self.feasible.item(i),
            batch_size=self.batch_size,
            fidelity=self.fidelity,
        )

    def breakdown(self, i: int, j: int = 0) -> BatchBreakdown:
        """Cell ``(i, j)``'s phase breakdown, built anew.

        A row's breakdowns share one ParallelConfig and notes dict, and
        equal ParallelConfigs are one object: stored cells never change.
        """
        config = self.configs[i]
        row = self._rows.get(i)
        if row is None:
            # shape: the ParallelConfig fields (n_gpus, g_inter, g_data, mbs, microbatches)
            if self.family == "cnn":
                shape = (config.n_gpus, 1, config.n_gpus, config.mbs, 1)
                notes = {"mode": config.mode, "fidelity": self.fidelity}
            else:
                shape = (config.g_inter * config.g_data, config.g_inter, config.g_data,
                         config.mbs, self.microbatches.item(i))
                notes = {
                    "t_f": self.t_f.item(i),
                    "t_b": self.t_b.item(i),
                    "overhead": self.overhead.item(i),
                    "mode": config.mode,
                    "g_tensor": config.g_tensor,
                    "fidelity": self.fidelity,
                }
            pcfg = self._pcfgs.get(shape) or self._pcfgs.setdefault(shape, ParallelConfig(*shape))
            row = self._rows[i] = (pcfg, notes)
        pcfg, notes = row
        return BatchBreakdown(
            framework=config.framework,
            model=self.model,
            config=pcfg,
            compute=self.compute.item(i, j),
            p2p=self.p2p.item(i, j),
            bubble=self.bubble.item(i, j),
            collective=self.collective.item(i, j),
            other=self.other.item(i, j),
            memory_per_gpu=self.memory_bytes.item(i),
            notes=notes,
        )


#: Evaluation's own slots that a view fills: its breakdown, once built,
#: and its wire fragment
_BREAKDOWN = Evaluation.__dict__["breakdown"]
_FRAGMENT = Evaluation.__dict__["fragment"]


class EvaluationView(Evaluation):
    """Cell ``(row, column)`` of an :class:`EvaluationBatch`, read as an
    :class:`~repro.autotune.estimator.Evaluation`.

    Config, memory, feasibility, batch size, fidelity and total are read
    from the batch on each access; the breakdown is built by
    :meth:`EvaluationBatch.breakdown` on its first read and kept. A view
    equals its materialised twin (:meth:`EvaluationBatch.evaluation`) in
    both directions, and its repr and :meth:`to_dict` are the twin's;
    :meth:`to_dict` builds no breakdown that it keeps. Like the batch
    arrays it reads, a view is immutable: threads that race on a first
    read may build two equal breakdowns, so no lock is needed.
    """

    __slots__ = ("batch", "row", "column")

    def __init__(self, batch: EvaluationBatch, row: int, column: int):
        # the slots' own setters: object.__setattr__ costs twice as much,
        # and a server makes a view per priced cell
        _set_batch(self, batch)
        _set_row(self, row)
        _set_column(self, column)
        _FRAGMENT.__set__(self, None)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def config(self) -> CandidateConfig:
        return self.batch.configs[self.row]

    @property
    def breakdown(self) -> BatchBreakdown:
        try:
            return _BREAKDOWN.__get__(self)
        except AttributeError:
            built = self.batch.breakdown(self.row, self.column)
            _BREAKDOWN.__set__(self, built)
            return built

    @property
    def memory_bytes(self) -> int:
        return self.batch.memory_bytes.item(self.row)

    @property
    def feasible(self) -> bool:
        return self.batch.feasible.item(self.row)

    @property
    def batch_size(self) -> int:
        return self.batch.batch_size

    @property
    def fidelity(self) -> str:
        return self.batch.fidelity

    @property
    def total_time(self) -> float:
        return self.batch.total.item(self.row, self.column)

    def twin(self) -> Evaluation:
        """This cell materialised (:meth:`EvaluationBatch.evaluation`)."""
        return self.batch.evaluation(self.row, self.column)

    def to_dict(self) -> dict:
        return self.twin().to_dict()

    def __repr__(self) -> str:
        return repr(self.twin())

    def __eq__(self, other):
        if isinstance(other, EvaluationView):
            other = other.twin()
        elif not isinstance(other, Evaluation):
            return NotImplemented
        return self.twin() == other


_set_batch = EvaluationView.batch.__set__
_set_row = EvaluationView.row.__set__
_set_column = EvaluationView.column.__set__


# ---------------------------------------------------------------------------
# per-scenario coefficient vectors
# ---------------------------------------------------------------------------

def _beta_multiplier(scenario, group_size: int, spans_nodes: bool) -> float:
    """Scenario bandwidth multiplier; exactly 1.0 for the pristine machine
    (``x * 1.0 == x`` bitwise, so the neutral column stays exact)."""
    if scenario is None:
        return 1.0
    return scenario.collective_beta_multiplier(group_size, spans_nodes=spans_nodes)


def _stall_factor(scenario, group_size: int, ranks=None) -> float:
    if scenario is None:
        return 1.0
    return scenario.collective_stall_factor(group_size, ranks)


def _per_column(g_arr: np.ndarray, columns, fn) -> np.ndarray:
    """``out[i, j] = fn(columns[j], g_arr[i])`` via distinct-value loops.

    Scenario coefficients depend only on the (scenario, group-size)
    pair; distinct group sizes number a handful per grid, so the Python
    double loop runs O(scenarios × distinct sizes) times, never
    O(cells).
    """
    out = np.empty((g_arr.size, len(columns)))
    for j, sc in enumerate(columns):
        for g in np.unique(g_arr):
            out[g_arr == int(g), j] = fn(sc, int(g))
    return out


# ---------------------------------------------------------------------------
# the vectorized estimator
# ---------------------------------------------------------------------------

class VectorizedAnalyticEstimator(AnalyticEstimator):
    """Eqs. 6-11 and the memory model as one broadcasted array program.

    ``fidelity="analytic-batch"`` (and, through :class:`_Analytic`,
    ``analytic``). The scalar ``evaluate`` inherited from
    :class:`AnalyticEstimator` is this estimator's own reference:
    ``evaluate_batch`` must agree with it element-wise, and the fidelity
    label is a separate cache-key component from the scenario, so a
    scalar warm-start hits the batch planner's cache and vice versa.

    Scenario support covers the *collective* knobs (ring-link
    multipliers, a stalling rank, cross-node bandwidth, the allreduce
    schedule) — per-scenario coefficient vectors broadcast against the
    candidate grid. Pipeline knobs (straggler stage, slow link, skew,
    contention) need the event engine's schedule and are rejected at
    construction for pipelined families, exactly like the scalar
    ``analytic`` fidelity; the CNN family runs pure data parallel, so
    any scenario is acceptable there (matching ``sim``'s CNN
    semantics).
    """

    fidelity = "analytic-batch"
    supports_scenarios = True
    supports_batch = True

    def __init__(
        self,
        spec: ModelSpec,
        cal: SummitCalibration = SUMMIT,
        scenario=None,
    ):
        scenario = get_scenario(scenario)
        self._check_scenario(spec, scenario)
        super().__init__(spec, cal, scenario=scenario)

    @staticmethod
    def _check_scenario(spec: ModelSpec, scenario: ClusterScenario | None) -> None:
        if (
            scenario is not None
            and scenario.degrades_pipeline
            and spec.family != "cnn"
        ):
            raise ValueError(
                f"scenario {scenario.name!r} degrades the pipeline phase; "
                "the closed-form analytic-batch fidelity only prices "
                "collective knobs — use fidelity='sim' for pipeline "
                "degradations"
            )

    def with_scenario(self, scenario) -> "VectorizedAnalyticEstimator":
        """This estimator re-bound to ``scenario`` (self when unchanged):
        its scalar ``evaluate`` then prices that one column of a batch,
        which is how :func:`crosscheck_batch` audits the program."""
        if get_scenario(scenario) == self.scenario:
            return self
        return type(self)(self.spec, self.cal, scenario=scenario)

    # -- batch entry --------------------------------------------------------
    def evaluate_batch(self, configs, scenarios=None) -> EvaluationBatch:
        configs = tuple(configs)
        if scenarios is None:
            columns = (self.scenario,)
        else:
            columns = tuple(get_scenario(s) for s in scenarios)
        for sc in columns:
            self._check_scenario(self.spec, sc)
        if self.spec.family == "cnn":
            return self._batch_cnn(configs, columns)
        return self._batch_transformer(configs, columns)

    # -- integer-exact pieces (Eqs. 1-5) ------------------------------------
    def _bytes(self, configs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-GPU memory, its feasibility and the all-reduce payload.

        Python-int arithmetic mirroring :func:`candidate_memory_per_gpu`
        and :func:`gradient_bytes_per_gpu` (bit-exact), each term memoised
        at its true granularity — state bytes on ``(mode, sparsity,
        G_data)``, activations on ``(mbs, checkpoint)``, the payload on
        ``(G_tensor * G_inter, sparse, sparsity)`` — so the O(layers) sums
        run once per distinct knob value, not once per candidate.
        """
        spec = self.spec
        fw_overhead = self.cal.framework_overhead_bytes
        state_memo: dict = {}
        act_memo: dict = {}
        grad_memo: dict = {}
        mem_l, grad_l = [], []
        for c in configs:
            mode, sparsity, g_data, g_tensor = c.mode, c.sparsity, c.g_data, c.g_tensor
            mpd = g_tensor * c.g_inter
            key = (mode, sparsity, g_data)
            state = state_memo.get(key)
            if state is None:
                state = state_memo[key] = model_state_bytes(
                    spec, mode, sparsity, g_data=g_data
                )
            key = (c.mbs, c.checkpoint_activations)
            acts = act_memo.get(key)
            if acts is None:
                acts = act_memo[key] = activation_footprint_bytes(spec, *key)
            mem_l.append(state // mpd + acts // g_tensor + fw_overhead)
            key = (mpd, mode in SPARSE_MODES, sparsity)
            nbytes = grad_memo.get(key)
            if nbytes is None:
                nbytes = grad_memo[key] = gradient_bytes_per_gpu(spec, *key)
            grad_l.append(nbytes)
        memory = np.array(mem_l, dtype=np.int64)
        grad_bytes = np.array(grad_l, dtype=np.int64)
        return memory, memory <= self.cal.gpu_memory_bytes, grad_bytes

    # -- data-parallel collective (Eqs. 10-11 + hierarchical schedule) ------
    def _dp_collective(
        self, nbytes: np.ndarray, g_data: np.ndarray, columns
    ) -> np.ndarray:
        """``(n_configs, n_scenarios)`` allreduce seconds, algo-dispatched.

        Mirrors :func:`repro.cluster.collectives.ring_allreduce_time` and
        :func:`repro.cluster.hierarchical.hierarchical_allreduce_time`
        op-by-op; the scenario column selects ring / hierarchical /
        best (elementwise min) through its ``coll_algo`` knob, exactly
        like :func:`~repro.cluster.collectives.allreduce_time`.
        """
        cal = self.cal
        g = g_data.astype(np.float64)[:, None]
        nb = nbytes.astype(np.float64)[:, None]
        live = ((g_data > 1) & (nbytes > 0))[:, None]

        stall = _per_column(g_data, columns, _stall_factor)
        need_ring = any(
            sc is None or sc.coll_algo in ("ring", "best") for sc in columns
        )
        need_hier = any(
            sc is not None and sc.coll_algo in ("hierarchical", "best")
            for sc in columns
        )

        ring_t = None
        if need_ring:
            bm = _per_column(
                g_data, columns, lambda sc, gs: _beta_multiplier(sc, gs, True)
            )
            beta = cal.coll_beta * bm
            steps = (2 * (g_data - 1)).astype(np.float64)[:, None]
            ring_t = steps * cal.coll_alpha + (2 * (g - 1) / g) * nb / beta
            ring_t = ring_t * stall

        hier_t = None
        if need_hier:
            gpn = cal.gpus_per_node
            local = np.minimum(g_data, gpn)
            n_nodes = -(-g_data // gpn)
            bm_local = _per_column(
                local, columns, lambda sc, gs: _beta_multiplier(sc, gs, False)
            )
            beta_nv = (cal.nvlink_bw * 0.6) * bm_local
            loc = local.astype(np.float64)[:, None]
            intra = 2 * ((loc - 1) * cal.coll_alpha + ((loc - 1) / loc) * nb / beta_nv)
            intra = np.where((local > 1)[:, None], intra, 0.0)
            bm_x = _per_column(
                n_nodes, columns, lambda sc, gs: _beta_multiplier(sc, gs, True)
            )
            beta_x = cal.coll_beta * bm_x
            nn = n_nodes.astype(np.float64)[:, None]
            shard = np.ceil(nb / loc)
            steps_x = (2 * (n_nodes - 1)).astype(np.float64)[:, None]
            inter = steps_x * cal.coll_alpha + (2 * (nn - 1) / nn) * shard / beta_x
            inter = np.where((n_nodes > 1)[:, None], inter, 0.0)
            hier_t = (intra + inter) * stall

        out = np.zeros((len(g_data), len(columns)))
        for j, sc in enumerate(columns):
            algo = getattr(sc, "coll_algo", None) or "ring"
            if algo == "ring":
                out[:, j] = ring_t[:, j]
            elif algo == "hierarchical":
                out[:, j] = hier_t[:, j]
            elif algo == "best":
                out[:, j] = np.minimum(ring_t[:, j], hier_t[:, j])
            else:  # pragma: no cover - ClusterScenario validates coll_algo
                raise ValueError(f"unknown allreduce algo {algo!r}")
        return np.where(live, out, 0.0)

    # -- tensor-parallel collective (Megatron intra-layer rings) ------------
    def _tp_collective(
        self, configs, g_tensor: np.ndarray, mbs: np.ndarray,
        m: np.ndarray, g_inter: np.ndarray, columns,
    ) -> np.ndarray:
        """Vectorized :meth:`CostEstimator._tensor_parallel_collective`.

        One ring price per distinct block-activation shape (transformer
        blocks share one), summed in layer order like the scalar
        ``sum()``; the stall factor honours group membership — ranks
        ``0..G_tensor-1`` — exactly like the rank-aware scalar path.
        """
        if not (g_tensor > 1).any():
            return np.zeros((len(configs), len(columns)))
        cal = self.cal
        payload_counts = Counter(
            l.activation_out_elems
            for l in self.spec.layers
            if l.kind == "transformer_block"
        )
        gt = g_tensor.astype(np.float64)[:, None]

        # ranks 0..g-1 stay on one node iff g <= gpus_per_node, so node
        # membership is a function of the group size alone
        def tp_beta(sc, gs):
            spans_nodes = gs > cal.gpus_per_node
            base = cal.coll_beta if spans_nodes else cal.nvlink_bw * 0.6
            return base * _beta_multiplier(sc, gs, spans_nodes)

        def tp_stall(sc, gs):
            return _stall_factor(sc, gs, list(range(gs)))

        beta = _per_column(g_tensor, columns, tp_beta)
        stall = _per_column(g_tensor, columns, tp_stall)
        steps = (2 * (g_tensor - 1)).astype(np.float64)[:, None]
        total = np.zeros((len(configs), len(columns)))
        for elems, n_blocks in payload_counts.items():
            nb = (2 * mbs * elems).astype(np.float64)[:, None]
            t = steps * cal.coll_alpha + (2 * (gt - 1) / gt) * nb / beta
            t = t * stall
            total = total + n_blocks * 4.0 * t
        total = np.where((g_tensor > 1)[:, None], total, 0.0)
        return total * m.astype(np.float64)[:, None] / g_inter.astype(np.float64)[:, None]

    # -- transformer family -------------------------------------------------
    def _batch_transformer(self, configs, columns) -> EvaluationBatch:
        spec, cal = self.spec, self.cal
        n = len(configs)
        B = spec.batch_size

        # -- one extraction pass over the grid ------------------------------
        # Every per-candidate scalar (decomposition, efficiency, message
        # time) comes out of a single Python loop, memoised where values
        # are few; the Eqs. 1-5 byte counts come from _bytes.
        eff_memo: dict = {}
        msg_memo: dict = {}
        max_boundary = self._max_boundary_elems
        gt_l, gi_l, gd_l, mbs_l, m_l = [], [], [], [], []
        eff_l, bwd_l, samo_l, ds_l, msg_l = [], [], [], [], []
        for c in configs:
            g_tensor, g_inter, g_data, mbs_c = c.g_tensor, c.g_inter, c.g_data, c.mbs
            if B % (g_data * mbs_c):
                raise ValueError(
                    f"batch {B} not divisible by G_data*mbs = {g_data}*{mbs_c}"
                )
            gt_l.append(g_tensor)
            gi_l.append(g_inter)
            gd_l.append(g_data)
            mbs_l.append(mbs_c)
            m_l.append(B // (g_data * mbs_c))
            kind = self._compute_kind(c)
            e = eff_memo.get(kind)
            if e is None:
                e = eff_memo[kind] = self.device.efficiency(kind)
            eff_l.append(e)
            bwd_l.append(3.0 if c.checkpoint_activations else 2.0)
            samo_l.append(c.mode.value == "samo")
            ds_l.append(c.framework == "deepspeed-3d")
            t = msg_memo.get(mbs_c)
            if t is None:
                t = msg_memo[mbs_c] = p2p_message_time(
                    pipeline_message_bytes(mbs_c, max_boundary), cal=cal
                )
            msg_l.append(t)
        memory, feasible, grad_bytes = self._bytes(configs)

        gt = np.array(gt_l, dtype=np.int64)
        gi = np.array(gi_l, dtype=np.int64)
        gd = np.array(gd_l, dtype=np.int64)
        mbs = np.array(mbs_l, dtype=np.int64)
        m = np.array(m_l, dtype=np.int64)
        mpd = gt * gi

        # -- compute (Eq. 6) ------------------------------------------------
        fwd_per_sample = spec.fwd_flops_per_sample()
        eff = np.array(eff_l)
        fwd_flops = fwd_per_sample * mbs.astype(np.float64)
        t_f = fwd_flops / (self.device.peak_flops * eff) / mpd.astype(np.float64)
        bwd_factor = np.array(bwd_l)
        t_b = bwd_factor * t_f
        m_f = m.astype(np.float64)
        compute = m_f * (t_f + t_b)
        is_samo = np.array(samo_l)
        overhead = np.where(
            is_samo,
            cal.samo_compress_cost_per_param
            * (spec.param_count / mpd.astype(np.float64))
            * m_f,
            0.0,
        )

        # -- p2p + bubble (Eqs. 7, 9) ---------------------------------------
        is_pipelined = gi > 1
        t_msg = np.array(msg_l)
        is_deepspeed = np.array(ds_l)
        p2p = 4.0 * m_f * t_msg
        p2p = np.where(is_deepspeed, p2p * cal.deepspeed_p2p_penalty, p2p)
        p2p = np.where(is_pipelined, p2p, 0.0)
        gi_f = gi.astype(np.float64)
        bubble = (t_f * gi_f + t_b * gi_f) * (1.0 - 1.0 / gi_f)
        bubble = np.where(is_deepspeed, bubble * cal.deepspeed_bubble_penalty, bubble)
        bubble = np.where(is_pipelined, bubble, 0.0)

        # -- collectives (Eqs. 10-11) ---------------------------------------
        coll = self._dp_collective(grad_bytes, gd, columns)
        coll = coll + self._tp_collective(configs, gt, mbs, m, gi, columns)

        other = cal.other_fraction * compute

        n_s = len(columns)

        def grid(col: np.ndarray) -> np.ndarray:
            return np.broadcast_to(col[:, None], (n, n_s)).copy()

        return EvaluationBatch(
            configs=configs,
            scenarios=columns,
            fidelity=self.fidelity,
            batch_size=B,
            model=spec.name,
            compute=grid(compute + overhead),
            p2p=grid(p2p),
            bubble=grid(bubble),
            collective=coll,
            other=grid(other),
            memory_bytes=memory,
            feasible=feasible,
            family="gpt",
            t_f=t_f,
            t_b=t_b,
            overhead=overhead,
            microbatches=m,
        )

    # -- CNN family (pure data parallel, Figure 5) --------------------------
    def _batch_cnn(self, configs, columns) -> EvaluationBatch:
        spec, cal = self.spec, self.cal
        n = len(configs)
        B = spec.batch_size
        for c in configs:
            if B % c.n_gpus:
                raise ValueError(f"batch {B} not divisible by {c.n_gpus} GPUs")
        n_gpus = np.array([c.n_gpus for c in configs], dtype=np.int64)
        spg = np.array([B // c.n_gpus for c in configs], dtype=np.int64)
        hint = spec.efficiency_hint
        eff_max = hint.get("eff_max", cal.conv_efficiency)
        half = hint.get("half_batch", cal.conv_half_batch)
        spg_f = spg.astype(np.float64)
        eff = eff_max * spg_f / (spg_f + half)
        fwd = spec.fwd_flops_per_sample()
        compute = 3.0 * fwd * spg_f / (self.device.peak_flops * eff)
        backward = compute * 2.0 / 3.0
        # SAMO's compression gather, one microbatch per data-parallel batch
        overhead = np.array([self._compress_overhead(c, 1) for c in configs])

        memory, feasible, grad_bytes = self._bytes(configs)
        raw = self._dp_collective(grad_bytes, n_gpus, columns)
        frac = cal.dp_overlap_fraction
        if frac > 0.0:
            hidden = np.minimum(raw * frac, backward[:, None])
            coll = np.maximum(raw - hidden, 0.0)
        else:
            coll = raw

        other = cal.other_fraction * compute

        n_s = len(columns)

        def grid(col: np.ndarray) -> np.ndarray:
            return np.broadcast_to(col[:, None], (n, n_s)).copy()

        return EvaluationBatch(
            configs=configs,
            scenarios=columns,
            fidelity=self.fidelity,
            batch_size=B,
            model=spec.name,
            compute=grid(compute + overhead),
            p2p=np.zeros((n, n_s)),
            bubble=np.zeros((n, n_s)),
            collective=coll,
            other=grid(other),
            memory_bytes=memory,
            feasible=feasible,
            family="cnn",
        )


# ---------------------------------------------------------------------------
# element-wise cross-check tooling
# ---------------------------------------------------------------------------

def crosscheck_batch(
    estimator,
    configs,
    scenarios=None,
    rel_tol: float = 1e-9,
) -> dict:
    """Element-wise drift of ``evaluate_batch`` against the scalar loop.

    Prices the grid both ways — one ``evaluate_batch`` call, then the
    scalar ``evaluate`` per cell via ``with_scenario`` — and reports the
    worst relative drift per phase plus any cells beyond ``rel_tol``.
    This is the audit the CLI exposes (``repro plan
    --compare-fidelities``) and the parity tests pin.
    """
    batch = estimator.evaluate_batch(configs, scenarios)
    worst = {p: 0.0 for p in PHASES}
    worst["total"] = 0.0
    mismatches = []
    for j, sc in enumerate(batch.scenarios):
        scalar = estimator.with_scenario(sc)
        for i, config in enumerate(batch.configs):
            ev = scalar.evaluate(config)
            ok = (
                int(batch.memory_bytes[i]) == ev.memory_bytes
                and bool(batch.feasible[i]) == ev.feasible
            )
            for p in PHASES + ("total",):
                a = float(getattr(batch, p)[i, j]) if p != "total" else float(
                    batch.total[i, j]
                )
                b = getattr(ev.breakdown, p) if p != "total" else ev.breakdown.total
                drift = abs(a - b) / max(abs(b), 1e-300) if b != a else 0.0
                worst[p] = max(worst[p], drift)
                if drift > rel_tol:
                    ok = False
            if not ok:
                mismatches.append((i, j))
    return {
        "cells": batch.n_configs * batch.n_scenarios,
        "max_rel_drift": worst,
        "mismatches": mismatches,
        "ok": not mismatches,
    }


class _Analytic(VectorizedAnalyticEstimator):
    """``fidelity="analytic"``: the array program under the scalar
    fidelity's label and scenario contract (every scenario is rejected
    with the shared :func:`resolve_fidelity` message)."""

    fidelity = "analytic"
    supports_scenarios = False

    @staticmethod
    def _check_scenario(spec: ModelSpec, scenario: ClusterScenario | None) -> None:
        if scenario is not None:
            resolve_fidelity("analytic", scenario)


def _make_analytic(
    estimator, spec, cal=SUMMIT, *, scenario=None, partition_mode="flops",
    overlap=False, placement="block",
):
    if partition_mode != "flops":
        raise ValueError(
            "time-balanced partitioning needs the event-driven engine; "
            "use fidelity='sim'"
        )
    if overlap or placement != "block":
        raise ValueError(
            "overlap and placement optimization need the event-driven "
            "engine; use fidelity='sim'"
        )
    return estimator(spec, cal, scenario=scenario)


register_estimator("analytic", functools.partial(_make_analytic, _Analytic))
register_estimator(
    "analytic-batch", functools.partial(_make_analytic, VectorizedAnalyticEstimator)
)
