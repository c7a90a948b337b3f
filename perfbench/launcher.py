"""Run ``repro serve`` with each layer's public entry point wrapped in spans.

Usage (the benchmark's traced run does this; it also works by hand)::

    PYTHONPATH=src python perfbench/launcher.py OUT_PREFIX serve [serve flags]

The launcher times ``import repro.serve``, imports every module the
server can reach, then wraps each entry point in :data:`LAYERS` *where
callers look it up*: methods on their class, functions in their
defining module and in every ``repro`` module that imported them by
name (``from .pipeline import simulate_pipeline`` copies the binding, so
patching only the defining module would time nothing). The server's
wire codec runs outside ``PlanningServer.handle`` (requests are parsed
on the stdin thread, answers encoded in a done-callback), so the
``json`` name in ``repro.serve.server`` is rebound to a copy of the
module whose ``loads``/``dumps`` are traced as ``serve.decode`` and
``serve.encode``.

Each call pushes a frame on a per-thread stack. On return it records
one span ``(name, parent name, request id, start_ns, end_ns, self_ns)``
into a per-thread buffer, where self time is the duration minus the time
covered by wrapped child calls on the same thread. The request id is the
JSON-RPC ``id`` of the request the thread is handling. Spans stay in
memory and are written when the server exits: ``OUT_PREFIX.json`` (names,
counts, thread index) and ``OUT_PREFIX.bin`` (int64 rows).
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
import types
from array import array

#: (module, attribute path, span name); "kernel" spans are named per call
#: by the estimator's fidelity, without its scenario/knob suffixes
LAYERS = (
    ("repro.serve.server", "PlanningServer.handle", "serve.handle"),
    ("repro.serve.server", "json.loads", "serve.decode"),
    ("repro.serve.server", "json.dumps", "serve.encode"),
    ("repro.serve.store", "PersistentEvaluationStore.get", "store.get"),
    ("repro.serve.store", "PersistentEvaluationStore.acquire", "store.acquire"),
    ("repro.serve.store", "PersistentEvaluationStore.put", "store.put"),
    ("repro.serve.store", "PersistentEvaluationStore.load", "store.load"),
    ("repro.serve.store", "Flight.result", "store.wait"),
    ("repro.api.session", "Session.plan", "api.plan"),
    ("repro.api.session", "Session.robust_plan", "api.robust_plan"),
    ("repro.api.session", "Session.mc_robust_plan", "api.mc_robust_plan"),
    ("repro.api.session", "Session.replan", "api.replan"),
    ("repro.api.session", "Session.place", "api.place"),
    ("repro.api.session", "Session.breakdown", "api.breakdown"),
    ("repro.autotune.result", "PlanResult.to_dict", "api.to_dict"),
    ("repro.api.session", "RobustPlanResult.to_dict", "api.to_dict"),
    ("repro.stochastic.monte_carlo", "MCRobustResult.to_dict", "api.to_dict"),
    ("repro.stochastic.replan", "ReplanDecision.to_dict", "api.to_dict"),
    ("repro.parallel.placement", "PlacementResult.to_dict", "api.to_dict"),
    ("repro.parallel.perf_model", "BatchBreakdown.to_dict", "api.to_dict"),
    ("repro.autotune.space", "SearchSpace.candidates", "space.candidates"),
    ("repro.autotune.cache", "evaluation_cache_key", "cache.key"),
    ("repro.autotune.estimator", "AnalyticEstimator.evaluate", "kernel"),
    ("repro.autotune.measured", "MeasuredEstimator.evaluate", "kernel"),
    ("repro.autotune.batch", "VectorizedAnalyticEstimator.evaluate_batch", "kernel"),
    ("repro.parallel.scenarios", "simulate_hetero_pipeline", "engine.simulate_hetero_pipeline"),
    ("repro.parallel.pipeline", "simulate_pipeline", "engine.simulate_pipeline"),
    ("repro.cluster.events", "EventLoop.run", "engine.event_loop"),
    ("repro.parallel.partitioner", "balanced_partition", "parallel.balanced_partition"),
    ("repro.parallel.scenarios", "overlap_exposed_collective", "parallel.overlap_exposed_collective"),
    ("repro.parallel.placement", "place_replicas", "parallel.place_replicas"),
    ("repro.cluster.collectives", "allreduce_time", "collectives.allreduce_time"),
    ("repro.stochastic.process", "ScenarioProcess.sample_timelines", "stochastic.sample_timelines"),
    ("repro.stochastic.replan", "run_replan", "stochastic.run_replan"),
    ("repro.autotune.measured", "execute_pipeline", "exec.execute_pipeline"),
    ("repro.autotune.measured", "execute_grad_sync", "exec.execute_grad_sync"),
    ("repro.autotune.measured", "replay_events", "exec.replay_events"),
    ("repro.obs.metrics", "MetricsRegistry.snapshot", "obs.snapshot"),
)
KERNELS = ("analytic", "analytic-batch", "sim", "measured")
SPAN_NAMES = tuple(dict.fromkeys(
    [name for _m, _a, name in LAYERS if name != "kernel"] + [f"kernel.{k}" for k in KERNELS]
))
COUNT_NAMES = (
    "serve.errors", "space.candidates.yielded", "engine.events", "stochastic.timelines",
    "obs.observations", *(f"kernel.{k}.cells" for k in KERNELS),
)
SPAN_FIELDS = ("name", "parent", "rid", "start_ns", "end_ns", "self_ns")
#: request ids at or above this are the client's control requests
CONTROL_ID_BASE = 1_000_000_000
NO_REQUEST = -1


def kernel_label(fidelity: str) -> str:
    """``sim@straggler+overlap`` -> ``sim``; ``measured[s0]`` -> ``measured``."""
    for sep in ("@", "+", "["):
        fidelity = fidelity.split(sep, 1)[0]
    return fidelity


class Recorder:
    """Per-thread span stacks and buffers, plus layer counts."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self.buffers: list = []  # (thread ident, array of SPAN_FIELDS rows)
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.server = None

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            return self._ids[name]

    def count(self, name: str, n: int) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def _state(self) -> list:
        st = getattr(self._local, "st", None)
        if st is None:
            buf = array("q")
            with self._lock:
                self.buffers.append((threading.get_ident(), buf))
            st = self._local.st = [buf, [], NO_REQUEST]  # buffer, stack, request id
        return st

    def call(self, name_id: int, fn, args, kwargs):
        st = self._state()
        buf, stack = st[0], st[1]
        if stack and stack[-1][0] == name_id:
            return fn(*args, **kwargs)  # a layer re-entering itself is one span
        frame = [name_id, 0]
        stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            dur = t1 - t0
            parent = NO_REQUEST
            if stack:
                stack[-1][1] += dur
                parent = stack[-1][0]
            buf.extend((name_id, parent, st[2], t0, t1, dur - frame[1]))

    def set_request(self, rid) -> int:
        st = self._state()
        previous = st[2]
        st[2] = rid if isinstance(rid, int) and not isinstance(rid, bool) else NO_REQUEST
        return previous

    def write(self, prefix: str, import_ms: float) -> None:
        with self._lock:
            buffers = list(self.buffers)
        header = {
            "names": self.names,
            "fields": SPAN_FIELDS,
            "threads": [[ident, len(buf) // len(SPAN_FIELDS)] for ident, buf in buffers],
            "counts": self.counts,
            "import_ms": import_ms,
        }
        with open(prefix + ".bin", "wb") as fh:
            for _ident, buf in buffers:
                buf.tofile(fh)
        with open(prefix + ".json", "w") as fh:
            json.dump(header, fh)


def _wrapper(rec: Recorder, name: str, fn):
    """The traced stand-in for ``fn`` (``name`` as in :data:`LAYERS`)."""
    if name == "serve.handle":
        nid = rec.name_id(name)

        def handle(self, request, *args, **kwargs):
            rec.server = self
            rid = request.get("id") if isinstance(request, dict) else None
            previous = rec.set_request(rid)
            try:
                response = rec.call(nid, fn, (self, request, *args), kwargs)
            finally:
                rec.set_request(previous)
            if "error" in response and isinstance(rid, int) and rid < CONTROL_ID_BASE:
                rec.count("serve.errors", 1)
            return response
        return handle
    if name in ("serve.decode", "serve.encode"):
        nid = rec.name_id(name)

        def codec(obj, *args, **kwargs):
            # tag the span with the id inside the request or response
            previous = rec.set_request(None)

            def run():
                out = fn(obj, *args, **kwargs)
                doc = out if name == "serve.decode" else obj
                rec.set_request(doc.get("id") if isinstance(doc, dict) else None)
                return out
            try:
                return rec.call(nid, run, (), {})
            finally:
                rec.set_request(previous)
        return codec
    if name == "kernel":
        def kernel(self, configs, *args, **kwargs):
            label = kernel_label(self.fidelity)
            out = rec.call(rec.name_id(f"kernel.{label}"), fn, (self, configs, *args), kwargs)
            cells = len(out.configs) * len(out.scenarios) if hasattr(out, "scenarios") else 1
            rec.count(f"kernel.{label}.cells", cells)
            return out
        return kernel
    nid = rec.name_id(name)
    if name == "space.candidates":
        def candidates(self, *args, **kwargs):
            # every caller materialises the generator at once; doing it
            # here keeps the enumeration inside one span
            out = rec.call(nid, lambda: list(fn(self, *args, **kwargs)), (), {})
            rec.count("space.candidates.yielded", len(out))
            return iter(out)
        return candidates
    if name == "engine.event_loop":
        def run(self, *args, **kwargs):
            before = self.events_processed
            try:
                return rec.call(nid, fn, (self, *args), kwargs)
            finally:
                rec.count("engine.events", self.events_processed - before)
        return run
    if name == "stochastic.sample_timelines":
        def sample_timelines(self, n, *args, **kwargs):
            out = rec.call(nid, fn, (self, n, *args), kwargs)
            rec.count("stochastic.timelines", len(out))
            return out
        return sample_timelines

    def traced(*args, **kwargs):
        return rec.call(nid, fn, args, kwargs)
    return traced


def install(rec: Recorder) -> None:
    """Wrap every entry point of :data:`LAYERS` at each binding."""
    server_module = importlib.import_module("repro.serve.server")
    codec = types.ModuleType("json")
    codec.__dict__.update(vars(json))
    server_module.json = codec  # the server's own binding; json itself stays untraced
    for module_name, path, name in LAYERS:
        owner = importlib.import_module(module_name)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapped = _wrapper(rec, name, original)
        setattr(owner, attr, wrapped)
        if not cls_path:
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").split(".")[0] != "repro":
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)


def main(argv: list) -> int:
    if len(argv) < 2 or argv[1] != "serve":
        print("usage: launcher.py OUT_PREFIX serve [serve flags]", file=sys.stderr)
        return 2
    prefix = argv[0]
    t0 = time.perf_counter()
    import repro.serve  # noqa: F401 — the import is what is timed

    import_ms = (time.perf_counter() - t0) * 1e3
    # load every module a request can reach before patching, so lazy
    # imports inside request handlers find the wrapped bindings
    for module_name, _path, _name in LAYERS:
        importlib.import_module(module_name)
    for module_name in ("repro.cli", "repro.parallel", "repro.parallel.data_parallel", "repro.stochastic"):
        importlib.import_module(module_name)
    rec = Recorder()
    install(rec)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[1:])
    finally:
        if rec.server is not None:
            snapshot = rec.server.registry.snapshot()
            rec.counts["obs.observations"] = sum(
                v["count"] for v in snapshot.values() if isinstance(v, dict) and "count" in v
            )
        rec.write(prefix, import_ms)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
