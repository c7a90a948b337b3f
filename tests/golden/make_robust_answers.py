"""Write the golden robust and Monte-Carlo wire answers ``robust_answers.json``.

Fresh planning servers answer :data:`GROUPS` in order, each group on its
own server: its machine budget, an optional patch applied to the
server's priced cells first, then its questions. Each answer is kept as
the exact text :meth:`PlanningServer.handle` returns, with the
per-request ``wall_seconds`` masked (:func:`mask`).

The corpus covers the shapes a writer could get wrong: a multi-label
batch matrix, a neutral-only set and a single-label set (both exact
degenerations), a sim set priced column by column, labels holding a
quote, a backslash, non-ASCII text, ``", "`` and ``%``, scenario names
that are not strings (a number and ``null``), a budget nothing fits
(``best: null``), the ``calm`` process, one sample, ``crn=False``, an
inline ``ScenarioProcess`` dict, repeated and re-sized sampling seeds,
cells patched to a non-finite total, and a micro-batch size sent as a
bool.

``tests/test_robust_golden.py`` asks the same questions of the current
server and requires every text byte for byte. Regenerate only when the
wire format of these answers is meant to change::

    PYTHONPATH=src python tests/golden/make_robust_answers.py
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.api import Job, Machine, ScenarioSet
from repro.parallel.scenarios import SCENARIOS
from repro.serve import PlanningServer

OUT = Path(__file__).with_name("robust_answers.json")

NARROW = {"frameworks": ["axonn", "axonn+samo"], "microbatch_sizes": [1], "explore_no_checkpoint": False}
XL16 = {"model": "gpt3-xl", "n_gpus": 16}
BATCH = {**XL16, "fidelity": "analytic-batch"}


def _scenario(name, **knobs) -> dict:
    """A collective-only scenario dict (priced by the batch program)."""
    return {**SCENARIOS["degraded-ring"].to_dict(), "name": name, "description": str(name), **knobs}


#: labels a writer must escape: a quote, a backslash, non-ASCII text, and
#: the separator ", " with printf-style "%s" and "%" inside one label
ODD_SET = {
    "name": 'odd "labels"',
    "members": [
        {"scenario": None, "weight": 1.0},
        {"scenario": _scenario('quote"d', cross_node_bw_multiplier=0.7), "weight": 2.0},
        {"scenario": _scenario("back\\slash", cross_node_bw_multiplier=0.4), "weight": 3.0},
        {"scenario": _scenario("ünïcødé ✓", cross_node_bw_multiplier=0.55), "weight": 0.5},
        {"scenario": _scenario('a", "b %s 100%', ring_link_multipliers=[1.0, 0.6]), "weight": 1.5},
    ],
}

#: names a request may send that are not strings: json.dumps writes them
#: as the keys "5" and "null" and as the values 5 and null
NUMERIC_SET = {
    "name": "numeric names",
    "members": [
        {"scenario": None, "weight": 1.0},
        {"scenario": _scenario(5, cross_node_bw_multiplier=0.4), "weight": 2.0},
        {"scenario": _scenario(None, cross_node_bw_multiplier=0.6), "weight": 1.0},
    ],
}

NUMERIC_PROCESS = {
    "name": "numeric kinds",
    "horizon": 1.0,
    "kinds": [
        {"name": "drop", "scenario": _scenario(7, cross_node_bw_multiplier=0.4),
         "rate": {"kind": "constant", "rate": 2.0}, "duration": 0.3},
    ],
}

SOLO_SET = {"name": "solo", "members": [{"scenario": SCENARIOS["degraded-ring"].to_dict(), "weight": 3.0}]}

CUSTOM_PROCESS = {
    "name": 'custom "wear"',
    "horizon": 2.0,
    "kinds": [
        {"name": "wear-out", "scenario": _scenario("ünïcødé ✓", cross_node_bw_multiplier=0.55),
         "rate": {"kind": "linear", "rate": 0.5, "rate_end": 3.0}, "duration": None},
        {"name": "flap", "scenario": SCENARIOS["degraded-ring"].to_dict(),
         "rate": {"kind": "constant", "rate": 1.5}, "duration": 0.3},
    ],
}

#: the columns flaky-links samples over, as a scenario set: a robust plan
#: over it claims the same cells as a Monte-Carlo plan over the process
FLAKY_COLUMNS = ScenarioSet.of("uniform", "slow-ring-link", "degraded-ring", name="flaky-columns")


def patch_non_finite(server: PlanningServer) -> None:
    """Price the flaky-links columns of the narrowed gpt3-xl@16 space,
    then set one cell's total to +inf and another's to NaN."""
    res = server.session.robust_plan(Job(**BATCH), FLAKY_COLUMNS, **{
        "frameworks": tuple(NARROW["frameworks"]),
        "microbatch_sizes": tuple(NARROW["microbatch_sizes"]),
        "explore_no_checkpoint": NARROW["explore_no_checkpoint"],
    })
    res.per_scenario["slow-ring-link"].evaluations[0].breakdown.compute = float("inf")
    res.per_scenario["degraded-ring"].evaluations[1].breakdown.compute = float("nan")


#: (budget_gb or None, patch or None, [(method, params), ...]); each group
#: runs on a fresh server
GROUPS = (
    (None, None, [
        ("robust_plan", {"job": BATCH, "scenarios": "collective-degraded"}),
        ("robust_plan", {"job": XL16, "scenarios": "neutral", **NARROW}),
        ("robust_plan", {"job": BATCH, "scenarios": SOLO_SET, **NARROW}),
        ("robust_plan", {"job": {**XL16, "fidelity": "sim"}, "scenarios": "mixed-degraded", **NARROW}),
        ("robust_plan", {"job": BATCH, "scenarios": ODD_SET, **NARROW}),
        ("robust_plan", {"job": BATCH, "scenarios": "collective-degraded", **NARROW}),
        ("mc_robust_plan", {"job": XL16, "process": "flaky-links", "samples": 32, "seed": 7}),
        ("mc_robust_plan", {"job": XL16, "process": "calm", "samples": 4, "seed": 7, **NARROW}),
        ("mc_robust_plan", {"job": XL16, "process": "flaky-links", "samples": 1, "seed": 3, **NARROW}),
        ("mc_robust_plan", {"job": XL16, "process": "flaky-links", "samples": 8, "seed": 4,
                            "crn": False, **NARROW}),
        ("mc_robust_plan", {"job": XL16, "process": CUSTOM_PROCESS, "samples": 16, "seed": 11, **NARROW}),
        ("mc_robust_plan", {"job": {**XL16, "fidelity": "sim"}, "process": "spot-preemption",
                            "samples": 8, "seed": 3, **NARROW}),
        # the same seed again, fewer samples, then more than were ever drawn
        ("mc_robust_plan", {"job": XL16, "process": "flaky-links", "samples": 32, "seed": 7, **NARROW}),
        ("mc_robust_plan", {"job": XL16, "process": "flaky-links", "samples": 8, "seed": 7, **NARROW}),
        ("mc_robust_plan", {"job": XL16, "process": "flaky-links", "samples": 48, "seed": 7, **NARROW}),
    ]),
    (8, None, [
        ("robust_plan", {"job": {**BATCH, "n_gpus": 8}, "scenarios": "collective-degraded",
                         "frameworks": ["deepspeed-3d"], "microbatch_sizes": [1]}),
        ("mc_robust_plan", {"job": {**XL16, "n_gpus": 8}, "process": "flaky-links", "samples": 4,
                            "seed": 7, "frameworks": ["deepspeed-3d"], "microbatch_sizes": [1]}),
    ]),
    (None, patch_non_finite, [
        ("robust_plan", {"job": BATCH, "scenarios": FLAKY_COLUMNS.to_dict(), **NARROW}),
        ("mc_robust_plan", {"job": XL16, "process": "flaky-links", "samples": 8, "seed": 7, **NARROW}),
    ]),
    (None, None, [
        ("robust_plan", {"job": BATCH, "scenarios": NUMERIC_SET, **NARROW}),
        ("mc_robust_plan", {"job": XL16, "process": NUMERIC_PROCESS, "samples": 6, "seed": 5, **NARROW}),
    ]),
    # first on its server: an equal space asked before would be reused
    (None, None, [
        ("robust_plan", {"job": BATCH, "scenarios": "collective-degraded",
                         "frameworks": ["axonn", "axonn+samo"], "microbatch_sizes": [True]}),
        ("mc_robust_plan", {"job": XL16, "process": "flaky-links", "samples": 4, "seed": 7,
                            "frameworks": ["axonn", "axonn+samo"], "microbatch_sizes": [True]}),
    ]),
)

_WALL = re.compile(r'"wall_seconds": [^,}]+')


def mask(text: str) -> str:
    """An answer's text with its wall-clock seconds written as 0."""
    return _WALL.sub('"wall_seconds": 0', text)


def answers() -> list:
    """Every group's answer texts, masked, in corpus order."""
    texts = []
    for budget_gb, patch, questions in GROUPS:
        machine = Machine.summit(budget_gb=budget_gb) if budget_gb else Machine()
        server = PlanningServer(machine=machine)
        if patch is not None:
            patch(server)
        for rid, (method, params) in enumerate(questions):
            request = {"jsonrpc": "2.0", "id": rid, "method": method, "params": params}
            texts.append(mask(server.handle(request)))
    return texts


def main() -> None:
    texts = answers()
    OUT.write_text(json.dumps(texts, indent=0) + "\n")
    print(f"wrote {len(texts)} answers ({sum(map(len, texts))} characters) to {OUT}")


if __name__ == "__main__":
    main()
