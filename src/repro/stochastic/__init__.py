"""``repro.stochastic`` — failure processes, Monte-Carlo robust planning,
and mid-job re-planning.

Three layers on top of the :mod:`repro.api` facade::

    from repro.api import Job, Machine, Session
    from repro.stochastic import get_process

    session = Session(Machine.summit())
    job = Job(model="gpt3-xl", n_gpus=16)

    # sampled degradation timelines from a named failure process
    timeline = get_process("flaky-links").sample(rng=7)

    # price every candidate on N sampled timelines (CRN across
    # candidates), with 95% CIs and tie-aware ranking
    result = session.mc_robust_plan(job, "flaky-links", samples=64, seed=7)

    # a failure arrived mid-job: ride it out or pay to repair?
    decision = session.replan(job, "straggler", at=0.4)

* :class:`ScenarioProcess` — per-degradation-kind Poisson arrival
  processes (constant and time-varying rates via thinning), named
  presets in :data:`PROCESSES`;
* :class:`MCRobustResult` / :func:`run_mc_robust_plan` — the
  Monte-Carlo pricing engine behind :meth:`Session.mc_robust_plan`;
* :class:`ReplanDecision` / :func:`run_replan` — the ride-vs-repair
  break-even analysis behind :meth:`Session.replan`.
"""

from .monte_carlo import ExposureMemo, MCCandidate, MCRobustResult, run_mc_robust_plan
from .process import (
    PROCESSES,
    DegradationKind,
    RateFunction,
    ScenarioEvent,
    ScenarioProcess,
    ScenarioTimeline,
    get_process,
)
from .replan import RepairOption, ReplanDecision, run_replan

__all__ = [
    "RateFunction",
    "DegradationKind",
    "ScenarioEvent",
    "ScenarioTimeline",
    "ScenarioProcess",
    "PROCESSES",
    "get_process",
    "MCCandidate",
    "MCRobustResult",
    "ExposureMemo",
    "run_mc_robust_plan",
    "RepairOption",
    "ReplanDecision",
    "run_replan",
]
