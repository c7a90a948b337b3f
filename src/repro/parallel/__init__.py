"""Parallel deep-learning frameworks on the simulated cluster.

The Figure 8-style batch breakdowns of AxoNN, AxoNN+SAMO, DeepSpeed-3D
and Sputnik are priced by :mod:`repro.autotune`'s estimators and asked
through :meth:`repro.api.Session.breakdown`; this package holds the
pieces they compose:

* :mod:`repro.parallel.pipeline` — event-driven 1F1B schedule simulation
  (Figure 3);
* :mod:`repro.parallel.partitioner` — memory accounting and ``G_inter``
  selection (Section IV-B);
* :class:`DataParallelSAMOTrainer` — functional multi-rank SAMO training
  over the thread communicator.
"""

from .data_parallel import collective_time, gradient_bytes_per_gpu
from .megatron import (
    ColumnParallelLinear,
    RowParallelLinear,
    TensorParallelMLP,
    copy_to_tensor_parallel,
    reduce_from_tensor_parallel,
    shard_dim,
)
from .partitioner import (
    PartitionPlan,
    StorageMode,
    activation_bytes_per_gpu,
    balanced_partition,
    choose_g_inter,
    memory_per_gpu,
    model_state_bytes,
)
from .perf_model import (
    BatchBreakdown,
    ParallelConfig,
    bubble_time,
    microbatches_per_gpu,
    transmission_time,
)
from .pipeline import PipelineTrace, TaskRecord, simulate_pipeline
from .pipeline_exec import (
    BucketedGradSync,
    PipelineStageTrainer,
    StageModule,
    partition_module_list,
)
from .placement import (
    Placement,
    PlacementResult,
    block_placement,
    optimize_placement,
    place_replicas,
)
from .scenarios import (
    SCENARIOS,
    ClusterScenario,
    OverlapReport,
    compare_partition_modes,
    get_scenario,
    overlap_exposed_collective,
    resolve_fidelity,
    run_scenario,
    simulate_hetero_pipeline,
)
from .samo_integration import DataParallelSAMOTrainer
from .zero import Zero1DataParallel, zero_memory_bytes

__all__ = [
    "DataParallelSAMOTrainer",
    "BatchBreakdown",
    "ParallelConfig",
    "bubble_time",
    "transmission_time",
    "microbatches_per_gpu",
    "simulate_pipeline",
    "simulate_hetero_pipeline",
    "compare_partition_modes",
    "OverlapReport",
    "overlap_exposed_collective",
    "Placement",
    "PlacementResult",
    "block_placement",
    "optimize_placement",
    "place_replicas",
    "BucketedGradSync",
    "ClusterScenario",
    "SCENARIOS",
    "get_scenario",
    "resolve_fidelity",
    "run_scenario",
    "PipelineTrace",
    "TaskRecord",
    "PipelineStageTrainer",
    "StageModule",
    "partition_module_list",
    "StorageMode",
    "model_state_bytes",
    "memory_per_gpu",
    "activation_bytes_per_gpu",
    "choose_g_inter",
    "balanced_partition",
    "PartitionPlan",
    "collective_time",
    "gradient_bytes_per_gpu",
    "ColumnParallelLinear",
    "RowParallelLinear",
    "TensorParallelMLP",
    "copy_to_tensor_parallel",
    "reduce_from_tensor_parallel",
    "shard_dim",
    "Zero1DataParallel",
    "zero_memory_bytes",
]
