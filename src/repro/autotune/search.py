"""The planner: the legacy search front end over the session facade.

:class:`Planner` is a thin wrapper over :class:`repro.api.Session` —
the enumerate / claim / price / publish loop lives in
:meth:`repro.api.session.Session._search`, with cache keys derived from
the frozen :class:`~repro.api.Machine` identity instead of
hand-assembled tuples. One :meth:`Planner.plan` call still:

1. enumerates the :class:`~repro.autotune.space.SearchSpace` (structural
   constraints and memory pruning happen there, before any costing);
2. partitions candidates into cache hits and misses against the shared
   :data:`~repro.autotune.cache.GLOBAL_CACHE`;
3. costs the misses;
4. returns a :class:`~repro.autotune.result.PlanResult`.

.. deprecated::
    New code should ask a :class:`repro.api.Session` directly:
    ``Session(Machine(cal=cal)).plan(Job(model=..., n_gpus=...))`` —
    and ``Session.robust_plan`` for scenario distributions.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.calibration import SUMMIT, SummitCalibration, with_memory_budget
from ..models.registry import get_spec
from ..models.spec import ModelSpec
from ..parallel.axonn import FRAMEWORKS
from .cache import GLOBAL_CACHE, EvaluationCache
from .estimator import make_estimator
from .result import PlanResult
from .space import SearchSpace

__all__ = ["PlannerStats", "Planner", "plan"]


@dataclass
class PlannerStats:
    """Accounting for one ``plan()`` call."""

    candidates: int = 0
    evaluated: int = 0
    cache_hits: int = 0
    pruned_memory: int = 0
    pruned_branches: int = 0
    wall_seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "candidates": self.candidates,
            "evaluated": self.evaluated,
            "cache_hits": self.cache_hits,
            "pruned_memory": self.pruned_memory,
            "pruned_branches": self.pruned_branches,
            "wall_seconds": round(self.wall_seconds, 4),
        }


class Planner:
    """Search the hybrid-parallel configuration space for one workload.

    .. deprecated:: thin wrapper over :class:`repro.api.Session`; new
       code should call ``Session.plan(Job(...))`` directly.
    """

    def __init__(
        self,
        model: str | ModelSpec,
        n_gpus: int,
        *,
        fidelity: str = "analytic",
        scenario=None,  # preset name or PipelineScenario (requires fidelity='sim')
        frameworks: tuple[str, ...] = FRAMEWORKS,
        sparsities: tuple[float, ...] = (0.9,),
        microbatch_sizes: tuple[int, ...] = (1, 2, 4),
        explore_no_checkpoint: bool = True,
        budget_gb: float | None = None,
        cache: EvaluationCache | None = None,
        cal: SummitCalibration = SUMMIT,
    ):
        self.spec = get_spec(model) if isinstance(model, str) else model
        self.n_gpus = n_gpus
        self.cal = with_memory_budget(budget_gb, cal) if budget_gb is not None else cal
        self.cache = GLOBAL_CACHE if cache is None else cache
        self.space = SearchSpace(
            spec=self.spec,
            n_gpus=n_gpus,
            frameworks=frameworks,
            sparsities=sparsities,
            microbatch_sizes=microbatch_sizes,
            explore_no_checkpoint=explore_no_checkpoint,
            cal=self.cal,
        )
        self.estimator = make_estimator(fidelity, self.spec, self.cal, scenario=scenario)
        # the estimator's label carries the scenario (e.g. "sim@straggler")
        # so cache keys and reports distinguish degraded-machine plans
        self.fidelity = self.estimator.fidelity
        self.stats = PlannerStats()

    # ------------------------------------------------------------------
    def plan(self) -> PlanResult:
        """Run the search and return the full result object."""
        from ..api.machine import Machine  # deferred: the api wraps this module
        from ..api.session import Session

        session = Session(Machine(cal=self.cal), cache=self.cache)
        (result,) = session._search(
            self.spec, self.space, self.estimator,
            [getattr(self.estimator, "scenario", None)], self.n_gpus,
        )
        self.stats = result.stats
        return result


def plan(model: str | ModelSpec, n_gpus: int, **kwargs) -> PlanResult:
    """One-shot convenience wrapper: ``Planner(...).plan()``.

    .. deprecated:: prefer ``repro.api.Session.plan``.
    """
    return Planner(model, n_gpus, **kwargs).plan()
