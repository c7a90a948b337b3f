"""``repro.autotune`` — analytical parallel-configuration planner.

The paper hand-picks one hybrid-parallel configuration per model and GPU
count; this subsystem *searches* the space instead, answering "what is
the best config for model X on N GPUs?" for any framework, sparsity, and
memory budget:

* :class:`SearchSpace` — enumerates valid ``(framework, G_tensor,
  G_inter, G_data, mbs, checkpointing, storage mode, sparsity)`` tuples
  under divisibility and memory constraints, pruning infeasible-memory
  branches before costing;
* :class:`AnalyticEstimator` / :class:`SimulatorEstimator` — the
  existing memory model (Eqs. 1-5), performance model (Eqs. 6-11) and
  event-driven pipeline simulator behind one ``evaluate`` interface;
* :class:`EvaluationCache` — priced cells keyed on (machine, model,
  fidelity, scenario, config), shared by every
  :class:`repro.api.Session` question;
* :class:`PlanResult` — best config, the (throughput, memory/GPU)
  Pareto frontier, and a Figure 8-style "why" breakdown.

CLI: ``python -m repro plan --model gpt3-2.7b --gpus 512 --sparsity 0.9``.
"""

from .batch import (
    EvaluationBatch,
    VectorizedAnalyticEstimator,
    crosscheck_batch,
)
from .cache import (
    GLOBAL_CACHE,
    EvaluationCache,
    evaluation_cache_key,
    spec_signature,
)
from .config import (
    FRAMEWORK_MODES,
    FRAMEWORKS,
    SPARSE_MODES,
    CandidateConfig,
    candidate_for_workload,
)
from .estimator import (
    AnalyticEstimator,
    CostEstimator,
    Evaluation,
    SimulatorEstimator,
    activation_footprint_bytes,
    available_fidelities,
    candidate_memory_per_gpu,
    make_estimator,
    register_estimator,
)
from .drift import DRIFT_TOLERANCES, FIG_TEMPLATES, drift_report, render_drift_report
from .measured import (
    MeasuredEstimator,
    execute_grad_sync,
    execute_pipeline,
    measure_comm_samples,
    replay_events,
)
from .result import PlannerStats, PlanResult
from .space import SearchSpace, SpaceStats

__all__ = [
    "CandidateConfig",
    "candidate_for_workload",
    "FRAMEWORKS",
    "FRAMEWORK_MODES",
    "SPARSE_MODES",
    "SearchSpace",
    "SpaceStats",
    "CostEstimator",
    "AnalyticEstimator",
    "SimulatorEstimator",
    "MeasuredEstimator",
    "execute_pipeline",
    "execute_grad_sync",
    "replay_events",
    "measure_comm_samples",
    "drift_report",
    "render_drift_report",
    "DRIFT_TOLERANCES",
    "FIG_TEMPLATES",
    "VectorizedAnalyticEstimator",
    "EvaluationBatch",
    "crosscheck_batch",
    "make_estimator",
    "register_estimator",
    "available_fidelities",
    "Evaluation",
    "activation_footprint_bytes",
    "candidate_memory_per_gpu",
    "EvaluationCache",
    "GLOBAL_CACHE",
    "evaluation_cache_key",
    "spec_signature",
    "PlannerStats",
    "PlanResult",
]
