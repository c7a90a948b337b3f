"""``repro.api`` — the canonical front door to the cost model.

One session facade over every cost-model question, built from three
frozen, hashable, serializable value objects::

    from repro.api import Job, Machine, Session

    session = Session(Machine.summit())
    job = Job(model="gpt3-2.7b", n_gpus=512, framework="axonn+samo")

    session.breakdown(job)                  # Figure-8 phase breakdown
    session.trace(job.with_(fidelity="sim"))  # event-driven 1F1B trace
    session.plan(job)                       # configuration search
    session.robust_plan(job, "mixed-degraded")  # expected-cost ranking
                                                # over a scenario set

* :class:`Job` — what is trained and how it should be costed;
* :class:`Machine` — calibration + memory budget + topology;
* :class:`ScenarioSet` — weighted machine-condition distributions
  (named presets in :data:`SCENARIO_SETS`);
* :class:`Session` — ``breakdown`` / ``trace`` / ``plan`` /
  ``robust_plan``, all sharing one evaluation cache keyed on the frozen
  value objects.

New costing backends plug in through
:func:`~repro.autotune.estimator.register_estimator` instead of editing
a factory. The CLI and the planning server ask through :class:`Session`
too.
"""

from ..autotune.estimator import (
    available_fidelities,
    make_estimator,
    register_estimator,
)
from ..parallel.placement import Placement, PlacementResult
from ..stochastic import (
    PROCESSES,
    MCCandidate,
    MCRobustResult,
    ReplanDecision,
    ScenarioProcess,
    get_process,
)
from ..parallel.scenarios import SCENARIOS, ClusterScenario, get_scenario
from .job import Job
from .machine import Machine
from .scenario_set import SCENARIO_SETS, ScenarioSet, get_scenario_set
from .session import RobustEvaluation, RobustPlanResult, Session

__all__ = [
    "Job",
    "Machine",
    "ScenarioSet",
    "SCENARIO_SETS",
    "get_scenario_set",
    "ClusterScenario",
    "SCENARIOS",
    "get_scenario",
    "Session",
    "RobustEvaluation",
    "RobustPlanResult",
    "ScenarioProcess",
    "PROCESSES",
    "get_process",
    "MCCandidate",
    "MCRobustResult",
    "ReplanDecision",
    "Placement",
    "PlacementResult",
    "register_estimator",
    "available_fidelities",
    "make_estimator",
]
