"""Planning-server benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 20 --trace 0

Drives a fresh ``python -m repro serve`` child over stdio in a closed
loop (see ``perfbench/README.md`` for the workloads and metrics). With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
replays a fixed number of rounds untraced and then under
``perfbench/launcher.py`` and prints the per-layer metrics and the
tracing overhead. Every answer is checked; the last stdout line is one
JSON object, and the exit code is non-zero on any wrong answer or
failed integrity check.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check_answers, project  # noqa: E402
from client import Server, ServerError, closed_loop  # noqa: E402
from launcher import CONTROL_ID_BASE, COUNT_NAMES, KERNELS, SPAN_FIELDS, SPAN_NAMES  # noqa: E402
from workloads import WORKLOADS, warm_questions  # noqa: E402

SETUP_STARTS = 7
#: a reported percentile must leave at least this many samples beyond it
TAIL_SAMPLES = 10


class Run:
    """One benchmark run's scratch directory, servers and tallies."""

    def __init__(self, workload, seed: int, seconds: int):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.dir = ROOT / ".perfbench" / f"{workload.name}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.store = str(self.dir / "store.jsonl") if workload.warm_start else None
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.reference: dict = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self._n_servers = 0
        self._control = CONTROL_ID_BASE
        self._live: list = []

    # -- servers ------------------------------------------------------------
    def serve_args(self) -> list:
        args = ["serve", *self.wl.server_args]
        if self.store is not None:
            args += ["--store", self.store]
        return args

    def spawn(self, traced_prefix: str | None = None) -> Server:
        self._n_servers += 1
        if traced_prefix is None:
            argv = [sys.executable, "-m", "repro", *self.serve_args()]
        else:
            argv = [sys.executable, str(HERE / "launcher.py"), traced_prefix, *self.serve_args()]
        server = Server(argv, self.env, str(ROOT), str(self.dir / f"server-{self._n_servers}.err"))
        self._live.append(server)
        return server

    def started(self, traced_prefix: str | None = None) -> tuple:
        """A server that has answered its first ping, and that start-up time."""
        server = self.spawn(traced_prefix)
        t, _ = server.call(self.control_id(), "ping")
        return server, t - server.t_spawn

    def control_id(self) -> int:
        self._control += 1
        return self._control

    def stats(self, server: Server) -> dict:
        return server.call(self.control_id(), "stats")[1]

    def stop_all(self) -> None:
        for server in self._live:
            server.kill()
        self._live.clear()

    # -- phases -------------------------------------------------------------
    def build_snapshot(self) -> None:
        """serve-warm: price every distinct question into a snapshot with
        the code under test, recording each cold answer as the reference."""
        questions = [q for qs in warm_questions(random.Random(self.seed)).values() for q in qs]
        server, _ = self.started()
        requests, _sends, arrivals, _t0, _t1 = closed_loop(server, iter([questions]), 1, lambda issued: True)
        self.tally(requests, arrivals)
        server.close()
        self._live.remove(server)
        if not os.path.exists(self.store):
            raise ServerError("the snapshot build left no store file")

    def timed(self, server: Server, rounds, stop) -> dict:
        """The closed loop plus the server-side readings around it."""
        before = self.stats(server)
        cpu0 = server.cpu_seconds()
        requests, sends, arrivals, t0, t1 = closed_loop(server, rounds, self.wl.window, stop)
        cpu1 = server.cpu_seconds()
        rss = server.peak_rss_mb()
        after = self.stats(server)
        failed, wire = self.tally(requests, arrivals)
        delta = {k: after[k] - before[k] for k in ("hits", "misses", "evictions")}
        lookups = delta["hits"] + delta["misses"]
        return {
            "requests": requests,
            "answers": len(requests) - failed,
            "elapsed": t1 - t0,
            "t1": t1,
            "latencies": [arrivals[i][0] - sends[i] for i in range(len(requests))],
            "cpu": cpu1 - cpu0,
            "rss": rss,
            "store": delta,
            "entries": after["entries"],
            "hit_ratio": delta["hits"] / lookups if lookups else 0.0,
            "wire": wire,
        }

    def tally(self, requests, arrivals) -> tuple:
        extra = _sim_cold_extra if self.wl.name == "sim-cold" else None
        failed, errors, wire = check_answers(requests, arrivals, self.reference, extra)
        self.attempted += len(requests)
        self.failed += failed
        self.errors += errors
        return failed, wire

    def integrity(self, phase: dict) -> None:
        wl, store = self.wl, phase["store"]
        if wl.warm_start and store["misses"]:
            self.errors.append(f"integrity: serve-warm timed phase missed the store {store['misses']} times")
        if wl.hit_band is not None:
            lo, hi = wl.hit_band
            if store["evictions"] <= 0:
                self.errors.append("integrity: serve-churn evicted nothing")
            if not lo <= phase["hit_ratio"] <= hi:
                self.errors.append(
                    f"integrity: serve-churn hit ratio {phase['hit_ratio']:.3f} outside [{lo}, {hi}]"
                )

    def in_process_check(self, requests: list) -> None:
        """sim-cold: a seeded sample (one request per kind) must match an
        in-process ``Session`` answer computed on a fresh cache."""
        sys.path.insert(0, str(ROOT / "src"))
        from repro.api import Job, Machine, Session
        from repro.autotune.cache import EvaluationCache

        session = Session(Machine.summit(), cache=EvaluationCache())
        rng = random.Random(self.seed + 1)
        by_kind: dict = {}
        for req in requests:
            by_kind.setdefault(req["kind"], []).append(req)
        for kind in sorted(by_kind):
            req = rng.choice(by_kind[kind])
            params = dict(req["params"])
            job = Job.from_dict(dict(params.pop("job")))
            axes = {k: tuple(params.pop(k)) for k in ("frameworks", "microbatch_sizes") if k in params}
            if "explore_no_checkpoint" in params:
                axes["explore_no_checkpoint"] = bool(params.pop("explore_no_checkpoint"))
            method = req["method"]
            if method == "plan":
                result = session.plan(job, scenario=params.get("scenario"), **axes)
            elif method == "breakdown":
                result = session.breakdown(job, scenario=params.get("scenario"))
            elif method == "place":
                result = session.place(job, scenario=params.get("scenario"), swap_sweeps=params["swap_sweeps"])
            elif method == "replan":
                result = session.replan(job, params["failure"])
            else:
                result = session.mc_robust_plan(
                    job, params["process"], samples=params["samples"], seed=params["seed"], **axes
                )
            self.attempted += 1
            if project(method, result.to_dict()) != self.reference[req["key"]]:
                self.failed += 1
                self.errors.append(f"in-process {kind} answer differs from the server's: {req['key'][:160]}")

    # -- the two kinds of run -----------------------------------------------
    def end_to_end(self) -> dict:
        if self.wl.warm_start:
            self.build_snapshot()
        setups = []
        for i in range(SETUP_STARTS):
            server, setup = self.started()
            setups.append(setup)
            if i < SETUP_STARTS - 1:
                server.kill()
        deadline = time.perf_counter() + self.seconds
        min_answers = self.wl.min_answers
        phase = self.timed(
            server, self.wl.rounds(self.seed),
            lambda issued: time.perf_counter() >= deadline and issued >= min_answers,
        )
        server.kill()
        self.integrity(phase)
        if self.wl.name == "sim-cold":
            self.in_process_check(phase["requests"])
        lat = sorted(phase["latencies"])
        metrics = {
            "answers_per_s": (phase["answers"] / phase["elapsed"], "1/s"),
            **{f"latency_p{p}_ms": (_percentile(lat, p) * 1e3, "ms") for p in self.wl.percentiles},
            "server_cpu_ms_per_answer": (phase["cpu"] * 1e3 / max(phase["answers"], 1), "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (phase["rss"], "MB"),
        }
        tail = max(self.wl.percentiles)
        metrics["latency_tail_ms"] = (metrics[f"latency_p{tail}_ms"][0], "ms")
        for p in self.wl.percentiles:
            if len(lat) - _rank(len(lat), p) < TAIL_SAMPLES:
                self.errors.append(f"integrity: p{p} has fewer than {TAIL_SAMPLES} samples beyond it")
        print(f"{self.wl.name}: seed {self.seed}, {len(lat)} answers in {phase['elapsed']:.2f} s, "
              f"{self.wl.window} outstanding; start-ups (s): {', '.join(f'{s:.3f}' for s in setups)}")
        print(f"store delta: {phase['store']}, entries {phase['entries']}, hit ratio {phase['hit_ratio']:.3f}")
        by_kind: dict = {}
        for req, latency in zip(phase["requests"], phase["latencies"]):
            by_kind.setdefault(req["kind"], []).append(latency)
        for kind, values in sorted(by_kind.items()):
            print(f"  {kind:20s} n={len(values):5d} median {statistics.median(values) * 1e3:9.2f} ms, "
                  f"total {sum(values):7.2f} s")
        return metrics

    def per_layer(self) -> dict:
        n_rounds = max(1, round(self.seconds / self.wl.nominal_round_s))
        source = self.wl.rounds(self.seed)
        rounds = [next(source) for _ in range(n_rounds)]
        n_requests = sum(len(r) for r in rounds)

        def stop(issued):
            return issued >= n_requests

        if self.wl.warm_start:
            self.build_snapshot()
        server, _ = self.started()
        plain = self.timed(server, iter(rounds), stop)
        server.kill()
        self.integrity(plain)
        prefix = str(self.dir / "spans")
        server, _ = self.started(traced_prefix=prefix)
        traced = self.timed(server, iter(rounds), stop)
        code = server.close()
        self._live.remove(server)
        if code != 0:
            raise ServerError(f"traced server exited with {code}; see {server.stderr_path}")
        self.integrity(traced)
        spans, counts, import_ms = _aggregate(prefix, server.t_spawn, traced["t1"])
        metrics = {}
        for name in SPAN_NAMES:
            calls, busy, own = spans.get(name, (0, 0.0, 0.0))
            metrics[f"{name}.calls"] = (calls, "count")
            metrics[f"{name}.busy_ms"] = (busy, "ms")
            metrics[f"{name}.self_ms"] = (own, "ms")
        for name in COUNT_NAMES:
            metrics[name] = (counts.get(name, 0), "count")
        metrics["serve.wire.bytes_per_answer"] = (traced["wire"] / max(len(traced["requests"]), 1), "B")
        metrics["store.hit_ratio"] = (traced["hit_ratio"], "ratio")
        metrics["store.evictions"] = (traced["store"]["evictions"], "count")
        metrics["store.entries"] = (traced["entries"], "count")
        metrics["setup.import_ms"] = (import_ms, "ms")
        untraced_rate = plain["answers"] / plain["elapsed"]
        traced_rate = traced["answers"] / traced["elapsed"]
        metrics["trace.untraced_answers_per_s"] = (untraced_rate, "1/s")
        metrics["trace.traced_answers_per_s"] = (traced_rate, "1/s")
        metrics["trace.overhead_ratio"] = (traced_rate / untraced_rate, "ratio")
        self._trace_integrity(counts)
        print(f"{self.wl.name}: seed {self.seed}, {n_rounds} rounds, {n_requests} requests, "
              f"untraced then traced")
        print(f"traced store delta: {json.dumps(traced['store'], sort_keys=True)}")
        print(f"tracing overhead: traced {traced_rate:.2f} answers/s / untraced {untraced_rate:.2f} answers/s "
              f"= {traced_rate / untraced_rate:.3f}")
        return metrics

    def _trace_integrity(self, counts: dict) -> None:
        cells = sum(counts.get(f"kernel.{k}.cells", 0) for k in KERNELS)
        events = counts.get("engine.events", 0)
        if self.wl.warm_start and cells:
            self.errors.append(f"integrity: serve-warm priced {cells} cells in its timed phase")
        if (self.wl.name == "sim-cold") != (events > 0):
            self.errors.append(f"integrity: engine.events = {events} on {self.wl.name}")


def _sim_cold_extra(req: dict, result) -> list:
    if req["method"] == "plan" and result["stats"]["cache_hits"]:
        return [f"sim-cold plan hit the store {result['stats']['cache_hits']} times"]
    return []


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile of n samples."""
    return max(1, -(-p * n // 100))


def _percentile(ordered: list, p: float) -> float:
    return ordered[_rank(len(ordered), p) - 1]


def _aggregate(prefix: str, t_start: float, t_end: float) -> tuple:
    """Per-name (calls, busy ms, self ms) over spans that started inside
    ``[t_start, t_end]`` and do not belong to a control request."""
    import numpy as np

    with open(prefix + ".json") as fh:
        header = json.load(fh)
    rows = np.fromfile(prefix + ".bin", dtype=np.int64).reshape(-1, len(SPAN_FIELDS))
    name, _parent, rid, start, end, own = rows.T
    keep = (start >= int(t_start * 1e9)) & (start <= int(t_end * 1e9)) & (rid < CONTROL_ID_BASE)
    n = len(header["names"])
    calls = np.bincount(name[keep], minlength=n)
    busy = np.bincount(name[keep], weights=(end - start)[keep], minlength=n) / 1e6
    selfs = np.bincount(name[keep], weights=own[keep], minlength=n) / 1e6
    spans = {
        label: (int(calls[i]), float(busy[i]), float(selfs[i]))
        for i, label in enumerate(header["names"])
    }
    return spans, header["counts"], header["import_ms"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "serve" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]]
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds)
    try:
        metrics = run.per_layer() if args.trace else run.end_to_end()
    except ServerError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        for path in sorted(run.dir.glob("server-*.err")):
            tail = path.read_text(errors="replace")[-2000:]
            if tail.strip():
                print(f"--- {path.name}\n{tail}", file=sys.stderr)
        return 1
    finally:
        run.stop_all()
        shutil.rmtree(run.dir, ignore_errors=True)
        try:
            run.dir.parent.rmdir()  # .perfbench/ goes too, unless another run still uses it
        except OSError:
            pass
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    missing = [name for name in declared if name not in metrics]
    if missing:
        run.errors.append(f"metrics not measured: {', '.join(missing)}")
    for error in run.errors:
        print(f"FAILED {error}")
    correct = not run.errors and run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in declared if name in metrics
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
