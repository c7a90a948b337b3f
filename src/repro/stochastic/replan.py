"""Mid-job re-planning: ride a failure out, or pay to repair?

A sampled degradation at normalised job time ``t`` leaves
``(1 - t) · horizon_batches`` batches still to run under the degraded
machine. :meth:`Session.replan` prices the decision:

* **ride** — keep the current configuration; every remaining batch pays
  the degraded batch time;
* **re-partition** — rebalance the pipeline cuts against
  time-under-scenario (``balanced_partition(mode="time")``), paying a
  migration cost to move the layers that change stage;
* **re-place** — re-run the replica placement optimizer
  (:meth:`Session.place`'s engine via ``placement="best"``), paying a
  migration cost to shuffle stage ranks;
* **both** — re-partition and re-place together.

Each repair amortises: with per-batch saving ``Δ = ride − repaired``,
the move pays for itself after ``migration / Δ`` batches — the
``break_even_batches`` of each :class:`RepairOption`. The decision is
whichever total remaining time is smallest (ties ride: doing nothing is
free and reversible).

The migration cost is parameterised (``migration_seconds=``); the
default models moving one pipeline stage's dense fp16 parameter shard
across the calibrated inter-node link via
:func:`~repro.cluster.p2p.p2p_message_time` — deliberately simple and
visible in the result, not hidden in the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..obs import OBS
from ..parallel.scenarios import get_scenario
from .process import ScenarioEvent

__all__ = ["RepairOption", "ReplanDecision", "run_replan"]


@dataclass(frozen=True)
class RepairOption:
    """One priced repair move."""

    action: str
    #: per-batch time after the repair, under the same scenario
    batch_time: float
    migration_seconds: float
    #: migration + remaining batches at the repaired rate
    total_seconds: float
    #: batches until the migration cost amortises (inf if never)
    break_even_batches: float

    def to_dict(self) -> dict:
        be = self.break_even_batches
        return {
            "action": self.action,
            "batch_time": self.batch_time,
            "migration_seconds": self.migration_seconds,
            "total_seconds": self.total_seconds,
            "break_even_batches": None if math.isinf(be) else be,
        }


@dataclass
class ReplanDecision:
    """Ride-vs-repair verdict for one failure at one point in the job."""

    model: str
    n_gpus: int
    scenario: str
    #: normalised job progress when the failure arrived
    at: float
    remaining_batches: float
    #: per-batch time if the job keeps its configuration
    ride_batch_time: float
    #: remaining batches at the ride rate
    ride_seconds: float
    options: list = field(default_factory=list)
    #: "ride" or the winning option's action
    decision: str = "ride"

    @property
    def chosen(self) -> RepairOption | None:
        for option in self.options:
            if option.action == self.decision:
                return option
        return None

    def report(self) -> str:
        from ..reporting.tables import render_table

        lines = [
            f"Re-plan decision for {self.model} on {self.n_gpus} GPUs: "
            f"'{self.scenario}' arrived at t={self.at:.2f} "
            f"({self.remaining_batches:g} batches remain)",
            f"  ride it out: {self.ride_batch_time:.3f} s/batch -> "
            f"{self.ride_seconds:.1f} s remaining",
        ]
        rows = []
        for option in self.options:
            be = option.break_even_batches
            rows.append(
                {
                    "repair": option.action,
                    "s/batch": round(option.batch_time, 3),
                    "migration (s)": round(option.migration_seconds, 2),
                    "total (s)": round(option.total_seconds, 1),
                    "break-even (batches)": (
                        "never" if math.isinf(be) else round(be, 1)
                    ),
                }
            )
        lines.append(render_table(rows, title="Repair options"))
        if self.decision == "ride":
            lines.append(
                "decision: RIDE — no repair amortises before the job ends"
            )
        else:
            chosen = self.chosen
            lines.append(
                f"decision: {chosen.action.upper()} — saves "
                f"{self.ride_seconds - chosen.total_seconds:.1f} s over riding "
                f"(break-even after {chosen.break_even_batches:.1f} batches)"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "n_gpus": self.n_gpus,
            "scenario": self.scenario,
            "at": self.at,
            "remaining_batches": self.remaining_batches,
            "ride_batch_time": self.ride_batch_time,
            "ride_seconds": self.ride_seconds,
            "options": [option.to_dict() for option in self.options],
            "decision": self.decision,
        }


# ---------------------------------------------------------------------------
# the driver (called by Session.replan inside its _op scope)
# ---------------------------------------------------------------------------

#: the repair moves, as Job knob overrides
_REPAIRS = (
    ("re-partition", {"partition_mode": "time"}),
    ("re-place", {"placement": "best"}),
    ("re-partition+re-place", {"partition_mode": "time", "placement": "best"}),
)


def default_migration_seconds(spec, g_inter: int, cal) -> float:
    """Moving one stage's dense fp16 parameter shard across nodes."""
    from ..cluster.p2p import p2p_message_time

    nbytes = 2 * spec.param_count // max(g_inter, 1)
    return p2p_message_time(nbytes, cal=cal)


def run_replan(
    session,
    job,
    failure,
    *,
    at: float = 0.5,
    horizon_batches: float = 500.0,
    migration_seconds: float | None = None,
    spec,
) -> ReplanDecision:
    """The engine behind :meth:`Session.replan`."""
    if isinstance(failure, ScenarioEvent):
        # a sampled arrival carries its own timestamp (normalised time)
        at = failure.time
        failure = failure.scenario
    scenario = get_scenario(failure)
    if not 0.0 <= at < 1.0:
        raise ValueError(f"'at' must be in [0, 1), got {at!r}")
    if horizon_batches <= 0:
        raise ValueError(
            f"horizon_batches must be positive, got {horizon_batches!r}"
        )
    if spec.family == "cnn":
        raise ValueError(
            f"{spec.name} runs pure data parallel (no pipeline to re-plan)"
        )

    # replan prices with the event engine: scenario stage times and the
    # placement/partition repairs all need the schedule, not Eqs. 6-7
    base = job.with_(fidelity="sim")
    remaining = horizon_batches * (1.0 - at)
    evaluations = OBS.metrics.counter("mc.replan_evaluations")

    ride = session.breakdown(base, scenario=scenario, spec=spec)
    evaluations.inc()
    ride_batch = ride.total
    ride_seconds = remaining * ride_batch

    if migration_seconds is None:
        migration_seconds = default_migration_seconds(
            spec, ride.config.g_inter, session.machine.cal
        )

    options = []
    for action, knobs in _REPAIRS:
        repaired = session.breakdown(
            base.with_(**knobs), scenario=scenario, spec=spec
        ).total
        evaluations.inc()
        saving = ride_batch - repaired
        options.append(
            RepairOption(
                action=action,
                batch_time=repaired,
                migration_seconds=migration_seconds,
                total_seconds=migration_seconds + remaining * repaired,
                break_even_batches=(
                    migration_seconds / saving if saving > 0 else math.inf
                ),
            )
        )

    best = min(options, key=lambda option: option.total_seconds)
    decision = best.action if best.total_seconds < ride_seconds else "ride"
    return ReplanDecision(
        model=spec.name,
        n_gpus=job.n_gpus,
        scenario=scenario.name if scenario is not None else "neutral",
        at=at,
        remaining_batches=remaining,
        ride_batch_time=ride_batch,
        ride_seconds=ride_seconds,
        options=options,
        decision=decision,
    )
