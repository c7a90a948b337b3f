"""Seeded, stratified request generators for the three workloads.

A workload is an endless sequence of *rounds*. Every round holds the
same number of requests of each kind, set by one stated rule per
workload (see ``perfbench/README.md``); the seed picks only parameters
and the order inside a round. Runs stop issuing at a round boundary, so
every run serves the designed mix exactly and two seeds price the same
kinds of work.

Request dicts carry ``kind`` (for the mix and the checks), ``method``
and ``params``. ``key`` (method + canonical params) identifies repeats
of the same question.

The Table I constants are copied here so the client never imports the
code under test before it measures it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

GPT_MODELS = ("gpt3-xl", "gpt3-2.7b", "gpt3-6.7b", "gpt3-13b")
#: Table I GPU counts per GPT model (``repro.models.registry.gpu_counts``)
GPU_COUNTS = {
    "gpt3-xl": (64, 128, 256, 512),
    "gpt3-2.7b": (64, 128, 256, 512),
    "gpt3-6.7b": (128, 256, 512, 1024),
    "gpt3-13b": (256, 512, 1024, 2048),
}
FRAMEWORKS = ("axonn", "axonn+samo", "deepspeed-3d", "sputnik")
#: scenario presets that touch only collective knobs (analytic-batch can price them)
COLLECTIVE_SCENARIOS = ("degraded-ring", "ring-straggler", "slow-ring-link", "hierarchical-degraded")
#: sim breakdown scenarios: uniform stages (fast-path side) and the
#: straggler/skewed/contention cases that must fall back to the event loop
SIM_SCENARIOS = (None, "uniform", "straggler", "skewed", "contention", "slow-link", "degraded-ring", "ring-straggler")
#: narrowed search axes for event-engine plans (a handful of candidates each)
NARROW = {"frameworks": ["axonn", "axonn+samo"], "microbatch_sizes": [1], "explore_no_checkpoint": False}
#: sparse-only axes: dense modes zero the sparsity in their cache keys,
#: so only sparse frameworks keep a fresh sparsity a never-seen cell
SPARSE_NARROW = {"frameworks": ["axonn+samo", "sputnik"], "microbatch_sizes": [1], "explore_no_checkpoint": False}


def request(kind: str, method: str, params: dict) -> dict:
    return {
        "kind": kind,
        "method": method,
        "params": params,
        "key": method + " " + json.dumps(params, sort_keys=True),
    }


@dataclass
class Workload:
    name: str
    #: requests outstanding at once (closed loop)
    window: int
    #: ``repro serve`` flags that define the workload (``--store`` is added at run time)
    server_args: list
    #: answers a run must carry before it may stop (percentile support)
    min_answers: int
    #: latency percentiles reported; every one keeps >= 10 samples beyond it
    percentiles: tuple
    #: round length the traced run assumes when it turns --seconds into rounds
    nominal_round_s: float
    #: serve-warm: the questions priced into the snapshot before the timed runs
    warm_start: bool = False
    #: serve-churn: the designed band of the timed phase's cell hit ratio
    hit_band: tuple | None = None
    build_rounds: object = field(default=None, repr=False)

    def rounds(self, seed: int):
        """Endless, seeded sequence of rounds (lists of requests)."""
        return self.build_rounds(random.Random(seed))


# ---------------------------------------------------------------------------
# serve-warm
# ---------------------------------------------------------------------------

def warm_questions(rng: random.Random) -> dict:
    """kind -> the distinct questions of serve-warm (fixed set; the seed
    picks only the Monte-Carlo sampling seeds)."""
    combos = [(m, g) for m in GPT_MODELS for g in GPU_COUNTS[m]]
    return {
        "plan-analytic": [
            request("plan-analytic", "plan", {"job": {"model": m, "n_gpus": g}})
            for m, g in combos
        ],
        "plan-batch": [
            request("plan-batch", "plan", {"job": {"model": m, "n_gpus": g, "fidelity": "analytic-batch"}})
            for m, g in combos[::2]
        ],
        "plan-batch-scenario": [
            request(
                "plan-batch-scenario", "plan",
                {"job": {"model": m, "n_gpus": GPU_COUNTS[m][1], "fidelity": "analytic-batch"}, "scenario": sc},
            )
            for m, sc in zip(GPT_MODELS, COLLECTIVE_SCENARIOS)
        ],
        "plan-sim": [
            request("plan-sim", "plan", {"job": {"model": "gpt3-xl", "n_gpus": 64, "fidelity": "sim"}, **NARROW}),
            request(
                "plan-sim", "plan",
                {"job": {"model": "gpt3-2.7b", "n_gpus": 64, "fidelity": "sim"}, "scenario": "straggler", **NARROW},
            ),
        ],
        "plan-measured": [
            request(
                "plan-measured", "plan",
                {"job": {"model": m, "n_gpus": g, "fidelity": "measured"}, **SPARSE_NARROW},
            )
            for m, g in (("gpt3-xl", 64), ("gpt3-2.7b", 128))
        ],
        "robust-batch": [
            request(
                "robust-batch", "robust_plan",
                {"job": {"model": m, "n_gpus": GPU_COUNTS[m][0], "fidelity": "analytic-batch"},
                 "scenarios": "collective-degraded"},
            )
            for m in GPT_MODELS
        ],
        "robust-sim": [
            request(
                "robust-sim", "robust_plan",
                {"job": {"model": "gpt3-xl", "n_gpus": 64, "fidelity": "sim"},
                 "scenarios": "mixed-degraded", **NARROW},
            )
        ],
        "mc": [
            request(
                "mc", "mc_robust_plan",
                {"job": {"model": m, "n_gpus": GPU_COUNTS[m][0]}, "process": "flaky-links",
                 "samples": 32, "seed": rng.randrange(10_000)},
            )
            for m in GPT_MODELS
        ],
        "breakdown": [
            request(
                "breakdown", "breakdown",
                {"job": {"model": m, "n_gpus": GPU_COUNTS[m][i % 4], "framework": FRAMEWORKS[(i + j) % 4]}},
            )
            for i, m in enumerate(GPT_MODELS)
            for j in range(2)
        ],
    }


#: a monitor scrapes ``metrics`` every 15 s (the interval in Prometheus'
#: example configuration); at the 75 answers/s serve-warm ran at on the
#: reference host when this rule was set, that is one scrape per 23 rounds
SCRAPE_INTERVAL_S = 15
WARM_ANSWERS_PER_S = 75
WARM_QUESTIONS = sum(len(qs) for qs in warm_questions(random.Random(0)).values())
SCRAPE_EVERY_ROUNDS = round(SCRAPE_INTERVAL_S * WARM_ANSWERS_PER_S / WARM_QUESTIONS)


def _warm_rounds(rng: random.Random):
    # every round asks each distinct question once; the scrape rides in
    # round 0, so even a short traced run copies the registry once
    questions = [q for qs in warm_questions(rng).values() for q in qs]
    scrape = request("metrics", "metrics", {})
    r = 0
    while True:
        picks = list(questions)
        if r % SCRAPE_EVERY_ROUNDS == 0:
            picks.append(scrape)
        rng.shuffle(picks)
        yield picks
        r += 1


# ---------------------------------------------------------------------------
# serve-churn
# ---------------------------------------------------------------------------

CHURN_SPARSITIES = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
CHURN_KINDS = ("plan-analytic", "plan-batch", "robust-collective", "robust-hierarchical")
#: Zipf popularity with exponent 1: the k-th most popular sparsity of a
#: (model, GPU count) pair is asked with weight 1/k
CHURN_POPULARITY = tuple(1 / k for k in range(1, len(CHURN_SPARSITIES) + 1))


def _churn_request(kind: str, model: str, gpus: int, sparsity: float) -> dict:
    job = {"model": model, "n_gpus": gpus, "sparsity": sparsity}
    if kind == "plan-analytic":
        return request(kind, "plan", {"job": job})
    job["fidelity"] = "analytic-batch"
    if kind == "plan-batch":
        return request(kind, "plan", {"job": job})
    scenarios = "collective-degraded" if kind == "robust-collective" else "hierarchical-mixed"
    return request(kind, "robust_plan", {"job": job, "scenarios": scenarios})


def _churn_rounds(rng: random.Random):
    # every round asks each kind once for each (model, GPU count) pair;
    # the seed ranks each pair's sparsities and draws one per slot
    combos = [(m, g) for m in GPT_MODELS for g in GPU_COUNTS[m]]
    ranked = {}
    for combo in combos:
        ranked[combo] = list(CHURN_SPARSITIES)
        rng.shuffle(ranked[combo])
    while True:
        picks = [
            _churn_request(kind, m, g, rng.choices(ranked[m, g], weights=CHURN_POPULARITY)[0])
            for kind in CHURN_KINDS
            for m, g in combos
        ]
        rng.shuffle(picks)
        yield picks


# ---------------------------------------------------------------------------
# sim-cold
# ---------------------------------------------------------------------------

#: (model, GPU count, scenario) of the plan slots in every round
SIM_PLAN_SLOTS = (
    ("gpt3-xl", 16, None),
    ("gpt3-xl", 32, "straggler"),
    ("gpt3-2.7b", 16, "contention"),
    ("gpt3-2.7b", 32, None),
)


def _sim_rounds(rng: random.Random):
    # a fresh sparsity per request keeps every question (and every sparse
    # cell) unseen; 15,000 distinct values outlast any run
    sparsities = [round(0.80 + k * 1e-5, 6) for k in range(15_000)]
    rng.shuffle(sparsities)
    fresh = iter(sparsities)
    small = ("gpt3-xl", "gpt3-2.7b")
    while True:
        # every slot's shape is fixed, so a round's cost does not depend
        # on the seed; the seed picks sparsities, sampling seeds and order
        picks = []
        for i, (scenario, overlap) in enumerate((s, o) for s in SIM_SCENARIOS for o in (False, True)):
            params = {
                "job": {
                    "model": small[i // 2 % 2], "n_gpus": (16, 32, 64)[i % 3],
                    "framework": FRAMEWORKS[i % 4], "fidelity": "sim", "overlap": overlap,
                    "sparsity": next(fresh),
                }
            }
            if scenario is not None:
                params["scenario"] = scenario
            picks.append(request("breakdown-sim", "breakdown", params))
        # the eight measured breakdowns sit in the middle of a round's cost
        # order (about 12 cheaper sim breakdowns, 13 dearer answers), so the
        # median answer is one of them rather than a class boundary
        for i in range(8):
            picks.append(request("breakdown-measured", "breakdown", {
                "job": {"model": small[i % 2], "n_gpus": (16, 32, 64)[i % 3],
                        "framework": FRAMEWORKS[i % 4], "fidelity": "measured", "sparsity": next(fresh)},
            }))
        for model, gpus, scenario in SIM_PLAN_SLOTS:
            params = {"job": {"model": model, "n_gpus": gpus, "fidelity": "sim", "sparsity": next(fresh)},
                      **SPARSE_NARROW}
            if scenario is not None:
                params["scenario"] = scenario
            picks.append(request("plan-sim", "plan", params))
        # place, replan and mc stay on gpt3-xl: at 16 GPUs gpt3-2.7b costs
        # them 20-50x more, and a seed must not pick the cost of a round
        for framework, scenario in (("axonn", None), ("deepspeed-3d", "straggler")):
            params = {"job": {"model": "gpt3-xl", "n_gpus": 16, "framework": framework,
                              "sparsity": next(fresh)}, "swap_sweeps": 1}
            if scenario is not None:
                params["scenario"] = scenario
            picks.append(request("place", "place", params))
        for failure in ("straggler", "slow-link"):
            picks.append(request("replan", "replan", {
                "job": {"model": "gpt3-xl", "n_gpus": 16, "sparsity": next(fresh)},
                "failure": failure,
            }))
        picks.append(request("mc-sim", "mc_robust_plan", {
            "job": {"model": "gpt3-xl", "n_gpus": 16, "fidelity": "sim", "sparsity": next(fresh)},
            "process": "spot-preemption", "samples": 16, "seed": rng.randrange(10_000),
            "frameworks": ["axonn+samo"], "microbatch_sizes": [1], "explore_no_checkpoint": False,
        }))
        rng.shuffle(picks)
        yield picks


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="serve-warm",
            window=2,
            server_args=[],
            min_answers=1000,
            percentiles=(50, 90, 99),
            nominal_round_s=0.7,
            warm_start=True,
            build_rounds=_warm_rounds,
        ),
        Workload(
            name="serve-churn",
            window=1,
            server_args=["--max-entries", "18000"],
            min_answers=1000,
            percentiles=(50, 90, 99),
            nominal_round_s=2.0,
            hit_band=(0.35, 0.65),
            build_rounds=_churn_rounds,
        ),
        Workload(
            name="sim-cold",
            window=1,
            server_args=[],
            min_answers=100,
            percentiles=(50, 90),
            nominal_round_s=4.0,
            build_rounds=_sim_rounds,
        ),
    )
}
