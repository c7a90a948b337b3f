"""Replica placement optimizer for the multi-replica pipeline pricing.

PR 3 made the batch pay the *slowest* data-parallel replica's chain:
:func:`repro.parallel.simulate_hetero_pipeline` prices every replica's
stage chain from the cluster topology, and a chain that straddles a node
boundary pays InfiniBand hops its all-NVLink siblings do not. The ranks
hosting each chain were fixed, though — AxoNN's contiguous block layout
(:meth:`repro.cluster.Topology.replica_pipeline_ranks`). This module
*optimizes* that assignment: a greedy node-packing construction followed
by local swaps, minimizing the slowest replica's chain makespan under the
active :class:`~repro.parallel.scenarios.ClusterScenario`.

The returned placement is **never worse than the default block layout**:
the optimizer evaluates the block layout first and only keeps its own
assignment when it strictly improves the objective. Chain times come
from the same event-driven engine (and the same scenario transforms) the
batch model uses, so "better here" means "better in the batch price".

:meth:`repro.api.Session.place` and the ``repro place`` CLI expose the
optimizer directly; ``placement="best"`` on a :class:`~repro.api.Job`
(or ``--placement best`` on the planner) makes ``breakdown``/``plan``/
``robust_plan`` price every candidate at its optimized placement.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.calibration import SUMMIT, SummitCalibration
from ..cluster.topology import Topology
from ..models.spec import ModelSpec
from .pipeline import simulate_pipeline

__all__ = [
    "Placement",
    "PlacementResult",
    "block_placement",
    "optimize_placement",
    "place_replicas",
]


@dataclass(frozen=True)
class Placement:
    """One assignment of pipeline-stage ranks to every replica.

    ``replicas[r][s]`` is the rank rooting stage ``s`` of replica ``r``
    (for ``g_tensor > 1`` the stage occupies the ``g_tensor`` consecutive
    ranks starting there, exactly like
    :meth:`~repro.cluster.Topology.replica_pipeline_ranks`). Replicas
    must not share ranks.
    """

    replicas: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "replicas", tuple(tuple(int(r) for r in chain) for chain in self.replicas)
        )
        if not self.replicas:
            raise ValueError("a placement needs at least one replica")
        depth = len(self.replicas[0])
        seen: set[int] = set()
        for chain in self.replicas:
            if len(chain) != depth:
                raise ValueError(
                    f"ragged placement: chains of length {depth} and {len(chain)}"
                )
            for r in chain:
                if r in seen:
                    raise ValueError(f"rank {r} assigned to two replicas")
                seen.add(r)

    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    @property
    def g_inter(self) -> int:
        return len(self.replicas[0])

    def describe(self) -> str:
        return "; ".join(
            f"r{i}: {','.join(str(x) for x in chain)}"
            for i, chain in enumerate(self.replicas)
        )

    def to_dict(self) -> dict:
        return {"replicas": [list(chain) for chain in self.replicas]}

    @classmethod
    def from_dict(cls, data: dict) -> "Placement":
        return cls(tuple(tuple(chain) for chain in data["replicas"]))


@dataclass
class PlacementResult:
    """Outcome of one placement optimization.

    ``makespan`` is the slowest replica's chain time under the chosen
    placement; ``default_makespan`` is the same objective under the block
    layout. The invariant ``makespan <= default_makespan`` always holds —
    when greedy + swaps cannot beat the block layout, the block layout
    *is* the returned placement.
    """

    placement: Placement
    chain_times: tuple
    makespan: float
    default_placement: Placement
    default_chain_times: tuple
    default_makespan: float
    swaps: int = 0
    evaluations: int = 0

    @property
    def improvement_pct(self) -> float:
        """Makespan reduction over the block layout, in percent."""
        if self.default_makespan <= 0:
            return 0.0
        return (1.0 - self.makespan / self.default_makespan) * 100.0

    @property
    def is_default(self) -> bool:
        return self.placement == self.default_placement

    def to_dict(self) -> dict:
        return {
            "placement": self.placement.to_dict(),
            "chain_times": list(self.chain_times),
            "makespan": self.makespan,
            "default_placement": self.default_placement.to_dict(),
            "default_chain_times": list(self.default_chain_times),
            "default_makespan": self.default_makespan,
            "improvement_pct": self.improvement_pct,
            "swaps": self.swaps,
            "evaluations": self.evaluations,
        }


def block_placement(
    topo: Topology, n_replicas: int, g_inter: int, g_tensor: int = 1
) -> Placement:
    """AxoNN's default contiguous block layout as a :class:`Placement`."""
    return Placement(
        tuple(
            tuple(topo.replica_pipeline_ranks(r, g_inter, g_tensor))
            for r in range(n_replicas)
        )
    )


def _unit_nodes(topo: Topology, g_tensor: int) -> list[int]:
    """Node of each stage-slot unit (``g_tensor`` consecutive ranks)."""
    n_units = topo.n_gpus // g_tensor
    return [topo.node_of(u * g_tensor) for u in range(n_units)]


def _greedy_placement(
    topo: Topology, n_replicas: int, g_inter: int, g_tensor: int
) -> Placement:
    """Node-aware construction: fill whole chains into single nodes
    first (best-fit, so large free pools survive for later chains), then
    compose the leftovers, largest fragment first, so each straddling
    chain crosses as few node boundaries as possible."""
    unit_node = _unit_nodes(topo, g_tensor)
    free: dict[int, list[int]] = {}
    for u, node in enumerate(unit_node):
        free.setdefault(node, []).append(u)

    chains: list[list[int]] = []
    for _ in range(n_replicas):
        fits = [n for n, units in free.items() if len(units) >= g_inter]
        if fits:
            # best fit: the node whose free pool is closest to the chain size
            node = min(fits, key=lambda n: (len(free[n]), n))
            units = [free[node].pop(0) for _ in range(g_inter)]
        else:
            units = []
            while len(units) < g_inter:
                # largest fragment first keeps the crossing count minimal
                node = max(free, key=lambda n: (len(free[n]), -n))
                take = min(g_inter - len(units), len(free[node]))
                units.extend(free[node].pop(0) for _ in range(take))
                if not free[node]:
                    del free[node]
        chains.append(units)
        free = {n: u for n, u in free.items() if u}
    return Placement(tuple(tuple(u * g_tensor for u in chain) for chain in chains))


def optimize_placement(
    topo: Topology,
    *,
    g_inter: int,
    g_tensor: int = 1,
    n_replicas: int,
    chain_time,
    final_chain_time=None,
    swap_sweeps: int = 2,
) -> PlacementResult:
    """Greedy construction + local swaps over a caller-supplied objective.

    ``chain_time(ranks: tuple[int, ...]) -> float`` prices one replica's
    chain during the *search* (the caller memoizes; :func:`place_replicas`
    builds it from the event engine at a reduced microbatch count — the
    schedule shape, not its length, is what ranks placements). The
    objective is the maximum chain time over all replicas — the
    synchronous data-parallel step waits for the slowest.

    Local search swaps the ranks of two stage slots (within or across
    replicas) and keeps a swap when the slowest chain strictly improves;
    ``swap_sweeps`` bounds the number of full passes.

    ``final_chain_time`` (default: ``chain_time``) prices the *reported*
    numbers: the search's best candidate and the block layout are both
    re-evaluated under it, and the block layout is returned whenever the
    candidate cannot beat it — the never-worse guarantee holds at full
    fidelity even when the search ran on the surrogate.
    """
    if swap_sweeps < 0:
        raise ValueError(f"swap_sweeps must be non-negative, got {swap_sweeps}")
    if final_chain_time is None:
        final_chain_time = chain_time
    evaluations = 0
    memo: dict[tuple, float] = {}

    def cost(chain: tuple) -> float:
        nonlocal evaluations
        if chain not in memo:
            memo[chain] = chain_time(chain)
            evaluations += 1
        return memo[chain]

    default = block_placement(topo, n_replicas, g_inter, g_tensor)

    chains = [list(c) for c in _greedy_placement(topo, n_replicas, g_inter, g_tensor).replicas]
    swaps = 0
    current = [cost(tuple(c)) for c in chains]
    for _ in range(swap_sweeps):
        improved = False
        worst = max(current)
        # A swap touches two replicas, so it can lower the max only if it
        # involves every currently-slowest replica — restricting one end
        # to the slowest set loses no improving move and prunes the pair
        # space from O((R*S)^2) to O(S * R*S).
        slow_slots = [
            (r, s)
            for r in range(len(chains))
            if current[r] >= worst * (1.0 - 1e-12)
            for s in range(g_inter)
        ]
        all_slots = [(r, s) for r in range(len(chains)) for s in range(g_inter)]
        for r1, s1 in slow_slots:
            for r2, s2 in all_slots:
                if (r1, s1) == (r2, s2):
                    continue
                a, b = chains[r1][s1], chains[r2][s2]
                if a == b or topo.same_node(a, b):
                    continue  # same-node swaps cannot change any link class
                chains[r1][s1], chains[r2][s2] = b, a
                try:
                    t1 = cost(tuple(chains[r1]))
                    t2 = cost(tuple(chains[r2])) if r2 != r1 else t1
                except ValueError:
                    # adjacent duplicate ranks: an invalid chain, undo
                    chains[r1][s1], chains[r2][s2] = a, b
                    continue
                rest = max(
                    (current[r] for r in range(len(chains)) if r not in (r1, r2)),
                    default=0.0,
                )
                if max(t1, t2, rest) < worst * (1.0 - 1e-12):
                    current[r1], current[r2] = t1, t2
                    worst = max(t1, t2, rest)
                    swaps += 1
                    improved = True
                else:
                    chains[r1][s1], chains[r2][s2] = a, b
        if not improved:
            break

    candidate = Placement(tuple(tuple(c) for c in chains))
    # final verdict at full fidelity: the candidate must beat the block
    # layout on the real objective or the block layout is returned
    default_times = tuple(final_chain_time(c) for c in default.replicas)
    default_make = max(default_times)
    candidate_times = tuple(final_chain_time(c) for c in candidate.replicas)
    if max(candidate_times) < default_make * (1.0 - 1e-12):
        placement, times = candidate, candidate_times
    else:
        placement, times = default, default_times
    return PlacementResult(
        placement=placement,
        chain_times=times,
        makespan=max(times),
        default_placement=default,
        default_chain_times=default_times,
        default_makespan=default_make,
        swaps=swaps,
        evaluations=evaluations,
    )


def place_replicas(
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
    scenario=None,
    blocking_sends: bool = False,
    partition_mode: str = "flops",
    swap_sweeps: int = 2,
    search_microbatches: int | None = None,
) -> PlacementResult:
    """Optimize the replica placement of one workload's pipeline.

    Takes the same model- and topology-derived inputs as
    :func:`~repro.parallel.scenarios.simulate_hetero_pipeline` (shared
    through one helper, so the optimizer's chain times are exactly the
    ones the batch model would pay) and returns the best placement found
    — never worse than the default block layout.

    ``search_microbatches`` truncates the batch *during the swap search
    only* (the planner's hot path passes a few pipeline-depths of
    microbatches; a 1F1B schedule's shape is developed by then). The
    final default-vs-candidate verdict always runs at the full ``m``, so
    the never-worse guarantee is at full fidelity either way.
    """
    from .scenarios import _chain_inputs, _topology, get_scenario

    scenario = get_scenario(scenario)
    t_f_stages, t_b_stages, cut_payloads, contention = _chain_inputs(
        spec, g_inter, mbs, t_f_model, t_b_model, partition_mode, scenario
    )
    mpd = g_inter * g_tensor
    topo = _topology(n_gpus or mpd, cal)
    n_replicas = max(topo.n_gpus // mpd, 1)

    search_m = m if search_microbatches is None else max(1, min(m, search_microbatches))

    def _chain_time_at(n_microbatches: int):
        # chains sharing a link profile are one entry of the schedule memo
        def chain_time(ranks: tuple) -> float:
            profile = topo.pipeline_link_times(list(ranks), cut_payloads)
            if scenario is not None:
                profile = scenario.scale_link_times(profile)
            return simulate_pipeline(
                g_inter,
                n_microbatches,
                t_f_stage=t_f_stages,
                t_b_stage=t_b_stages,
                msg_time=profile if profile else 0.0,
                blocking_sends=blocking_sends,
                link_contention=contention,
            ).makespan

        return chain_time

    full = _chain_time_at(m)
    return optimize_placement(
        topo,
        g_inter=g_inter,
        g_tensor=g_tensor,
        n_replicas=n_replicas,
        chain_time=_chain_time_at(search_m) if search_m < m else full,
        final_chain_time=full,
        swap_sweeps=swap_sweeps,
    )
