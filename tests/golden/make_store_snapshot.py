"""Write the golden evaluation-store snapshot ``store_snapshot.jsonl``.

A planning server with an empty, unbounded store answers
:data:`QUESTIONS` in order — a scalar and a batch plan, a plan under an
inline ``ClusterScenario``, a time-partitioned sim plan, a robust plan over
a scenario set and a Monte-Carlo plan, all on narrowed search axes so
the file stays small — and saves its store. The answers, without their
wall-clock ``stats``, go to ``store_snapshot_answers.json``.

``tests/test_store_golden.py`` loads the snapshot into the current
store, asks the same questions with zero misses and the same answers,
and checks that ``save()`` rewrites the file byte for byte. Regenerate
only when the snapshot format is meant to change::

    PYTHONPATH=src python tests/golden/make_store_snapshot.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.serve import PersistentEvaluationStore, PlanningServer, decode_response

OUT = Path(__file__).with_name("store_snapshot.jsonl")
ANSWERS = Path(__file__).with_name("store_snapshot_answers.json")

NARROW = {"frameworks": ["axonn", "axonn+samo"], "microbatch_sizes": [1], "explore_no_checkpoint": False}
INLINE = {"name": "inline-degraded-ring", "cross_node_bw_multiplier": 0.6, "ring_link_multipliers": [1.0, 0.7]}

#: (method, params) in the order the snapshot's cells were priced
QUESTIONS = (
    ("plan", {"job": {"model": "gpt3-xl", "n_gpus": 16}, **NARROW}),
    ("plan", {"job": {"model": "gpt3-xl", "n_gpus": 32, "fidelity": "analytic-batch"}, **NARROW}),
    ("plan", {"job": {"model": "gpt3-xl", "n_gpus": 16, "fidelity": "analytic-batch"},
              "scenario": INLINE, **NARROW}),
    ("plan", {"job": {"model": "gpt3-xl", "n_gpus": 16, "fidelity": "sim", "partition_mode": "time"}, **NARROW}),
    ("robust_plan", {"job": {"model": "gpt3-xl", "n_gpus": 16, "fidelity": "analytic-batch"},
                     "scenarios": "collective-degraded", **NARROW}),
    ("mc_robust_plan", {"job": {"model": "gpt3-xl", "n_gpus": 16}, "process": "flaky-links",
                        "samples": 4, "seed": 7, **NARROW}),
)


def answer(server: PlanningServer, method: str, params: dict) -> dict:
    """One question's result, without its volatile wall-clock stats."""
    response = decode_response(
        server.handle({"jsonrpc": "2.0", "id": 1, "method": method, "params": params})
    )
    result = response["result"]
    result.pop("stats", None)
    return result


def main() -> None:
    store = PersistentEvaluationStore()
    server = PlanningServer(store=store)
    answers = [answer(server, method, params) for method, params in QUESTIONS]
    n = store.save(OUT)
    ANSWERS.write_text(json.dumps(answers, sort_keys=True, indent=1) + "\n")
    print(f"wrote {n} cells to {OUT} and {len(answers)} answers to {ANSWERS}")


if __name__ == "__main__":
    main()
