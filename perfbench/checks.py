"""Answer checks: canonical projections and per-method invariants.

A projection keeps what a caller acts on — the ranking, the best
config, the totals and the confidence intervals — and drops the
wall-clock ``stats`` block, so a warm answer can be compared with the
cold answer to the same request. Rankings are sorted canonically:
a plan's ``evaluations`` list follows cache-hit order, which differs
between a cold and a partly warm answer, while the ranking must not.
"""

from __future__ import annotations

import json

PHASES = ("compute", "p2p", "bubble", "collective", "other")


def _cfg(config: dict) -> str:
    return json.dumps(config, sort_keys=True)


def _best(result: dict):
    best = result.get("best")
    return None if best is None else _cfg(best["config"])


def project(method: str, result):
    """The part of an answer two correct servers must agree on."""
    if method == "plan":
        rows = [
            (not e["feasible"], e["breakdown"]["total"], _cfg(e["config"]), e["memory_bytes"])
            for e in result["evaluations"]
        ]
        return {"best": _best(result), "ranking": sorted(rows)}
    if method == "robust_plan":
        rows = [
            (not e["feasible"], e["expected_time"], e["worst_time"], e["worst_scenario"], _cfg(e["config"]))
            for e in result["entries"]
        ]
        return {"best": _best(result), "ranking": sorted(rows)}
    if method == "mc_robust_plan":
        rows = [
            (not e["feasible"], e["mean_time"], e["std_time"], e["ci95"], e["worst_time"], _cfg(e["config"]))
            for e in result["entries"]
        ]
        leaders = sorted(_cfg(c) for c in result["leaders"])
        return {"best": _best(result), "ranking": sorted(rows), "leaders": leaders}
    if method in ("breakdown", "place", "replan"):
        return result  # no wall-clock fields: the whole answer
    return None  # metrics: a live snapshot, nothing to compare


def breakdown_sum_ok(b: dict) -> bool:
    """A breakdown's total equals the sum of its phases (exactly, in the
    order the cost model adds them)."""
    return b["total"] == b["compute"] + b["p2p"] + b["bubble"] + b["collective"] + b["other"]


def invariant_errors(method: str, result) -> list:
    """Per-answer invariants that hold whatever the request."""
    errors = []
    if method == "breakdown" and not breakdown_sum_ok(result):
        errors.append("breakdown total != sum of phases")
    elif method == "plan":
        bad = sum(1 for e in result["evaluations"] if not breakdown_sum_ok(e["breakdown"]))
        if bad:
            errors.append(f"{bad} plan evaluations with total != sum of phases")
    elif method == "place" and not result["makespan"] <= result["default_makespan"]:
        errors.append(f"place makespan {result['makespan']} > default {result['default_makespan']}")
    elif method == "metrics" and not {"session", "store"} <= set(result):
        errors.append("metrics answer lacks session/store sections")
    return errors


def check_answers(requests: list, arrivals: dict, reference: dict, extra=None) -> tuple:
    """Decode every timed answer and check it.

    ``reference`` maps a request key to the projection the answer must
    equal; a key seen first here is recorded as its own reference, so
    repeats of one question must agree. ``extra(request, result)`` adds
    workload-specific errors. Returns ``(failed, errors, wire_bytes)``
    where ``errors`` holds at most a few examples.
    """
    failed = 0
    errors: list = []
    wire = 0
    checked_keys = set()
    for rid, req in enumerate(requests):
        _t, line = arrivals[rid]
        wire += len(line)
        doc = json.loads(line)
        problems = []
        if "error" in doc:
            problems.append(f"JSON-RPC error {doc['error']}")
        else:
            result = doc["result"]
            proj = project(req["method"], result)
            if req["key"] not in checked_keys:
                # invariants depend only on the projection-equal content,
                # so checking one answer per question covers its repeats
                problems += invariant_errors(req["method"], result)
                checked_keys.add(req["key"])
            if proj is not None:
                expected = reference.setdefault(req["key"], proj)
                if proj != expected:
                    problems.append("answer differs from the reference answer to the same request")
            if extra is not None:
                problems += extra(req, result)
        if problems:
            failed += 1
            if len(errors) < 5:
                errors.append(f"{req['kind']} {req['key'][:160]}: {'; '.join(problems)}")
    return failed, errors, wire
