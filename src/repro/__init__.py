"""repro — reproduction of *Exploiting Sparsity in Pruned Neural Networks
to Optimize Large Model Training* (Singh & Bhatele, IPDPS 2023).

Subpackages
-----------
``repro.core``
    SAMO: compressed shared-index model state, compression/expansion,
    the analytical memory model (Eqs. 1-5), and the SAMO optimizer step.
``repro.tensor``
    NumPy autograd engine (the dense-compute substrate).
``repro.models``
    GPT-3 family / VGG-19 / WideResnet-101 — analytical specs at paper
    scale, runnable tiny variants.
``repro.pruning``
    Early-Bird Tickets, magnitude, iterative (LTH), random masks.
``repro.optim``
    Adam/AdamW/SGD with shared in-place kernels, schedules, clipping.
``repro.sparse``
    spMM/sDDMM kernels + calibrated cuBLAS/cuSPARSE/Sputnik models (Fig 1).
``repro.cluster``
    Simulated Summit: topology, device, events, collectives (calibrated).
``repro.comm``
    Thread-rank communicator with MPI semantics (functional parallelism).
``repro.parallel``
    The pieces of the AxoNN / AxoNN+SAMO / DeepSpeed-3D / Sputnik batch
    model: pipeline schedules, partitioner, Eqs. 6-11, scenarios.
``repro.train``
    Mixed-precision trainer, synthetic corpora, metrics (Fig 4).
``repro.reporting``
    ASCII tables/plots used by the benchmark harness.
``repro.autotune``
    Parallel-configuration planner: enumerates valid ``(framework,
    G_tensor, G_inter, G_data, mbs, checkpointing, storage, sparsity)``
    configs, costs them through the analytical models (or the
    event-driven pipeline simulator), memoises evaluations, and reports
    the best config plus a (throughput, memory) Pareto frontier —
    ``python -m repro plan --model gpt3-2.7b --gpus 512``.
``repro.api``
    The canonical front door: frozen ``Job``/``Machine``/``ScenarioSet``
    value objects consumed by a ``Session`` facade
    (``breakdown``/``trace``/``plan``/``robust_plan``) over every
    cost-model entry point, with robust planning across weighted
    scenario distributions. Every priced answer, a breakdown included,
    is a cell of one evaluation cache.
``repro.obs``
    Observability: span tracer + metrics registry behind no-op
    defaults, Chrome ``trace_event`` export (Perfetto-loadable), and
    the ``Session``/CLI wiring (``Session(trace_to=...)``,
    ``Session.metrics()``, ``repro trace --chrome out.json``).
"""

from . import (
    api,
    autotune,
    cluster,
    comm,
    core,
    models,
    obs,
    optim,
    parallel,
    pruning,
    reporting,
    sparse,
    tensor,
    train,
)
from .core import (
    SAMOConfig,
    SAMOOptimizer,
    SAMOTrainingState,
    compress,
    expand,
    load_state,
    save_state,
)
from .pruning import EarlyBirdPruner, MaskSet, magnitude_prune, random_prune
from .train import Trainer

__version__ = "1.0.0"

__all__ = [
    "api",
    "autotune",
    "obs",
    "core",
    "tensor",
    "models",
    "pruning",
    "optim",
    "sparse",
    "cluster",
    "comm",
    "parallel",
    "train",
    "reporting",
    "SAMOConfig",
    "SAMOOptimizer",
    "SAMOTrainingState",
    "compress",
    "expand",
    "MaskSet",
    "EarlyBirdPruner",
    "magnitude_prune",
    "random_prune",
    "Trainer",
    "save_state",
    "load_state",
    "__version__",
]
