"""Planning-as-a-service: JSON-RPC over stdio or HTTP.

One long-lived :class:`PlanningServer` owns a single
:class:`~repro.api.Session` bound to a shared
:class:`~repro.serve.store.PersistentEvaluationStore`, and answers the
session's questions over the wire — the ``to_dict``/``from_dict`` layer
on :class:`~repro.api.Job`/:class:`~repro.api.ScenarioSet` and every
result object *is* the wire format, so a request is just the JSON of the
value objects the Python API already takes::

    {"jsonrpc": "2.0", "id": 1, "method": "plan",
     "params": {"job": {"model": "gpt3-xl", "n_gpus": 64}}}

Methods: ``plan``, ``robust_plan``, ``mc_robust_plan``, ``replan``,
``place``, ``breakdown``, ``metrics``, ``stats``, ``save``, ``ping``,
``shutdown``. Errors follow
JSON-RPC codes (-32700 parse, -32601 unknown method, -32602 invalid
params, -32000 internal).

Transports (both concurrent, so identical in-flight requests coalesce
through the store's request-level single flight):

* **stdio** — one JSON request (or a JSON-RPC batch array) per line on
  stdin, one response per line on stdout. Single requests are answered
  as they complete (match responses by ``id``); a batch array gets one
  array response in request order.
* **HTTP** — a stdlib :class:`http.server.ThreadingHTTPServer`:
  ``POST /`` with a request or batch body, ``GET /metrics`` for the
  Prometheus text exposition, ``GET /healthz``.

:meth:`PlanningServer.handle` returns each response as wire text from
:func:`encode_response`; a plan answer is spliced from its cells' JSON
fragments, each kept on its cell from the cell's second encode on, and
robust and Monte-Carlo answers are written row by row from their
results' arrays. Every answer is byte for byte ``json.dumps`` of the
result's ``to_dict()``, less the fields the wire leaves out.

Every request lands in ``serve.requests{method=...}`` and
``serve.request_seconds{method=...}`` on the session registry, next to
the existing ``session.ops``/``estimator.calls`` instruments; misses
coalesced onto another request's in-flight evaluation count in
``serve.inflight_coalesced``.
"""

from __future__ import annotations

import concurrent.futures
import functools
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from json.encoder import encode_basestring_ascii as _string

from ..api import Job, Machine, RobustPlanResult, ScenarioSet, Session
from ..autotune.estimator import Evaluation
from ..autotune.result import PlanResult, RowResult
from ..parallel.scenarios import ClusterScenario
from ..stochastic import MCRobustResult, ScenarioProcess
from .store import PersistentEvaluationStore

__all__ = ["PlanningServer", "encode_response", "decode_response", "serve_stdio", "serve_http"]

PROTOCOL = "2.0"

#: JSON-RPC error codes
PARSE_ERROR = -32700
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
INTERNAL_ERROR = -32000


def _fragment(ev: Evaluation) -> str:
    """The cell's canonical JSON. The first encode only marks the cell as
    seen (an empty fragment) and the second keeps the text on it, so a
    cell encoded once keeps nothing (racing threads write equal values,
    so no lock is needed)."""
    text = ev.fragment
    if not text:
        encoded = json.dumps(ev.to_dict())
        object.__setattr__(ev, "fragment", "" if text is None else encoded)
        return encoded
    return text


_BOOL = {True: "true", False: "false"}

#: CandidateConfig.to_dict() as json.dumps writes it
_CONFIG = (
    '{"framework": %s, "g_tensor": %s, "g_inter": %s, "g_data": %s, "mbs": %s, '
    '"checkpoint_activations": %s, "mode": %s, "sparsity": %s}'
)


def _config(c) -> str:
    # the mode is a str enum: its string is its value; the micro-batch
    # size is whatever number the request sent, a bool too
    mbs = c.mbs
    return _CONFIG % (
        _string(c.framework), c.g_tensor, c.g_inter, c.g_data,
        mbs if mbs.__class__ is int else json.dumps(mbs),
        _BOOL[c.checkpoint_activations], _string(c.mode), c.sparsity,
    )


#: entry field kind (see ``entry_dict``) -> its column as template values.
#: ``%s`` writes a Python int or finite float (or a list of them) as
#: json.dumps does, ``repr``, so numbers pass as they are; bools, strings
#: and configs are written here
_SLOTS = {
    "config": lambda col: [_config(c) for c in col],
    "bool": lambda col: [_BOOL[v] for v in col],
    "label": lambda col: [_string(v) for v in col],
}


class _Raw(str):
    """Text spliced into an answer as is."""


def _entries(result: RowResult, rows, drop=()) -> list:
    """The entries at ``rows``, each the text of ``json.dumps(entry.to_dict())``
    less the ``drop`` fields, written from ``result``'s columns through one
    row template (its fields in the entry's ``LAYOUT`` order)."""
    columns = result.columns(rows, skip=drop)
    fields, values = [], []
    for name, kind in result.ENTRY.LAYOUT:
        if name in drop:
            continue
        column = columns[name]
        if kind == "by_label":
            # one template slot and one column per label
            keys = ", ".join(_string(label).replace("%", "%%") + ": %s" for label in result.labels)
            fields.append(_string(name) + ": {" + keys + "}")
            values.extend(zip(*column))
        else:
            fields.append(_string(name) + ": %s")
            values.append(_SLOTS[kind](column) if kind in _SLOTS else column)
    template = "{" + ", ".join(fields) + "}"
    return [_Raw(template % row) for row in zip(*values)]


def _splice(doc: dict) -> str:
    """``json.dumps(doc)`` with each plan laid out by :meth:`PlanResult.layout`
    and its evaluations written as fragments, and each robust or
    Monte-Carlo result laid out by its ``layout`` with its entries written
    by :func:`_entries`. Each run of other fields is one ``json.dumps``,
    which also writes the next spliced field's key."""
    parts, run = [], {}
    for key, value in doc.items():
        if isinstance(value, PlanResult):
            text = _splice(value.layout(lambda ev: ev))
        elif isinstance(value, RowResult):
            # per-sample costs derive from the seed and are heavy: the wire
            # keeps the best entry's only (a robust answer's layout already
            # leaves out its per-label plans)
            drop = ("sample_costs",) if isinstance(value, MCRobustResult) else ()
            if value.plain():
                text = _splice(value.layout(functools.partial(_entries, value), drop))
            else:  # json.dumps spells NaN, Infinity and non-str labels
                text = json.dumps(value.layout(value.entry_dicts, drop))
        elif isinstance(value, Evaluation):
            text = _fragment(value)
        elif isinstance(value, _Raw):
            text = value
        elif value.__class__ is list and value and isinstance(value[0], Evaluation):
            text = "[" + ", ".join([_fragment(ev) for ev in value]) + "]"
        elif value.__class__ is list and value and isinstance(value[0], _Raw):
            text = "[" + ", ".join(value) + "]"
        else:
            run[key] = value
            continue
        run[key] = None
        parts.append(json.dumps(run)[1:-5] + text)  # '"key": null}' -> '"key": ' + text
        run = {}
    if run:
        parts.append(json.dumps(run)[1:-1])
    return "{" + ", ".join(parts) + "}"


def encode_response(response) -> str:
    """The wire text of a response or a batch array of them: byte for byte
    ``json.dumps`` of it with results built by ``to_dict()`` (less the
    fields the wire leaves out). Text that :meth:`PlanningServer.handle`
    rendered passes through as is."""
    if isinstance(response, str):
        return response
    if isinstance(response, list):
        return "[" + ", ".join([encode_response(r) for r in response]) + "]"
    if isinstance(response.get("result"), (PlanResult, RowResult)):
        return _splice(response)
    return json.dumps(response)


def decode_response(text: str):
    """:meth:`PlanningServer.handle`'s text, decoded for callers reading fields."""
    return json.loads(text)


def _resolve_scenario(value):
    """A scenario param: preset name, ClusterScenario dict, or None."""
    if isinstance(value, dict):
        return ClusterScenario.from_dict(value)
    return value  # name / None — Session resolves presets itself


def _search_kwargs(params: dict) -> dict:
    """The optional search-axis params ``plan``/``robust_plan`` accept."""
    kwargs = {}
    if "frameworks" in params:
        kwargs["frameworks"] = tuple(params["frameworks"])
    if "microbatch_sizes" in params:
        kwargs["microbatch_sizes"] = tuple(params["microbatch_sizes"])
    if "explore_no_checkpoint" in params:
        kwargs["explore_no_checkpoint"] = bool(params["explore_no_checkpoint"])
    return kwargs


class PlanningServer:
    """The service half: request dicts in, response wire text out.

    Transport-agnostic — :func:`serve_stdio` and :func:`serve_http` (and
    the load benchmark, which calls :meth:`handle` straight from worker
    threads) all share this object, its session, and its store.
    """

    def __init__(
        self,
        machine: Machine | None = None,
        store: PersistentEvaluationStore | None = None,
    ):
        self.store = store if store is not None else PersistentEvaluationStore()
        self.session = Session(
            machine if machine is not None else Machine(), cache=self.store
        )
        self.registry = self.session.registry
        self._stop = threading.Event()
        if self.store.path is not None:
            self.store.load()

    # ------------------------------------------------------------------
    @property
    def stopped(self) -> bool:
        return self._stop.is_set()

    def shutdown(self) -> None:
        self._stop.set()

    def close(self) -> None:
        """Flush the store on the way out (transports call this)."""
        if self.store.path is not None:
            self.store.save()

    # -- method handlers ------------------------------------------------
    def _job(self, params: dict) -> Job:
        if "job" not in params:
            raise ValueError("missing required param 'job'")
        return Job.from_dict(dict(params["job"]))

    def do_plan(self, params: dict) -> PlanResult:
        return self.session.plan(  # encode_response splices its fragments
            self._job(params),
            scenario=_resolve_scenario(params.get("scenario")),
            **_search_kwargs(params),
        )

    def do_robust_plan(self, params: dict) -> RobustPlanResult:
        scenarios = params.get("scenarios")
        if scenarios is None:
            raise ValueError("missing required param 'scenarios'")
        if isinstance(scenarios, dict):
            scenarios = ScenarioSet.from_dict(scenarios)
        return self.session.robust_plan(  # encode_response writes its rows
            self._job(params), scenarios, **_search_kwargs(params)
        )

    def do_mc_robust_plan(self, params: dict) -> MCRobustResult:
        process = params.get("process")
        if process is None:
            raise ValueError("missing required param 'process'")
        if isinstance(process, dict):
            process = ScenarioProcess.from_dict(process)
        return self.session.mc_robust_plan(  # encode_response writes its rows
            self._job(params),
            process,
            samples=int(params.get("samples", 32)),
            seed=int(params.get("seed", 0)),
            crn=bool(params.get("crn", True)),
            **_search_kwargs(params),
        )

    def do_replan(self, params: dict) -> dict:
        failure = params.get("failure")
        if failure is None:
            raise ValueError("missing required param 'failure'")
        kwargs = {}
        if "at" in params:
            kwargs["at"] = float(params["at"])
        if "horizon_batches" in params:
            kwargs["horizon_batches"] = float(params["horizon_batches"])
        if "migration_seconds" in params:
            kwargs["migration_seconds"] = float(params["migration_seconds"])
        result = self.session.replan(
            self._job(params), _resolve_scenario(failure), **kwargs
        )
        return result.to_dict()

    def do_place(self, params: dict) -> dict:
        result = self.session.place(
            self._job(params),
            scenario=_resolve_scenario(params.get("scenario")),
            swap_sweeps=int(params.get("swap_sweeps", 2)),
        )
        return result.to_dict()

    def do_breakdown(self, params: dict) -> dict:
        result = self.session.breakdown(
            self._job(params), scenario=_resolve_scenario(params.get("scenario"))
        )
        return result.to_dict()

    def do_metrics(self, params: dict) -> dict:
        return {"session": self.session.metrics(), "store": self.store.stats()}

    def do_stats(self, params: dict) -> dict:
        return self.store.stats()

    def do_save(self, params: dict) -> dict:
        path = params.get("path")
        n = self.store.save(path) if path else self.store.save()
        return {"saved": n, "path": path or self.store.path}

    def do_ping(self, params: dict) -> dict:
        return {"ok": True}

    def do_shutdown(self, params: dict) -> dict:
        self.shutdown()
        return {"ok": True, "stopping": True}

    # ------------------------------------------------------------------
    def handle(self, request) -> str:
        """One JSON-RPC request dict -> its response's wire text, which
        both transports write as is (never raises; see
        :func:`decode_response` for in-process readers)."""
        rid = request.get("id") if isinstance(request, dict) else None
        if not isinstance(request, dict) or not isinstance(
            request.get("method"), str
        ):
            return self._error(rid, PARSE_ERROR, "request must be an object with a 'method'")
        method = request["method"]
        params = request.get("params") or {}
        if not isinstance(params, dict):
            return self._error(rid, INVALID_PARAMS, "'params' must be an object")
        handler = getattr(self, f"do_{method}", None)
        if handler is None or method.startswith("_"):
            return self._error(rid, METHOD_NOT_FOUND, f"unknown method {method!r}")
        self.registry.counter("serve.requests", {"method": method}).inc()
        t0 = time.perf_counter()
        try:
            result = handler(params)
        except (KeyError, ValueError, TypeError) as err:
            self.registry.counter("serve.errors", {"method": method}).inc()
            msg = err.args[0] if err.args else str(err)
            return self._error(rid, INVALID_PARAMS, str(msg))
        except Exception as err:  # noqa: BLE001 — a server must not die
            self.registry.counter("serve.errors", {"method": method}).inc()
            return self._error(rid, INTERNAL_ERROR, f"{type(err).__name__}: {err}")
        finally:
            self.registry.histogram(
                "serve.request_seconds", {"method": method}
            ).observe(time.perf_counter() - t0)
        try:
            return encode_response({"jsonrpc": PROTOCOL, "id": rid, "result": result})
        except Exception as err:  # noqa: BLE001 — an answer not written is still answered
            self.registry.counter("serve.errors", {"method": method}).inc()
            return self._error(rid, INTERNAL_ERROR, f"{type(err).__name__}: {err}")

    @staticmethod
    def _error(rid, code: int, message: str) -> str:
        return encode_response({
            "jsonrpc": PROTOCOL,
            "id": rid,
            "error": {"code": code, "message": message},
        })

    # -- prometheus -----------------------------------------------------
    def prometheus(self) -> str:
        """Registry exposition plus the store state as gauges."""
        for name, value in self.store.stats().items():
            self.registry.gauge("serve.store", {"stat": name}).set(value)
        return self.session.metrics_text()


# ---------------------------------------------------------------------------
# transports
# ---------------------------------------------------------------------------

def serve_stdio(server: PlanningServer, stdin, stdout, request_workers: int = 8) -> int:
    """Line-oriented JSON-RPC until EOF or a ``shutdown`` request.

    Single requests run on a worker pool and are written as they finish
    (tagged by ``id``); a batch array blocks the read loop and answers
    in order — which is also the natural way to send a thundering herd
    down one pipe.
    """
    write_lock = threading.Lock()

    def emit(text: str) -> None:
        with write_lock:
            stdout.write(text + "\n")
            stdout.flush()

    try:
        with concurrent.futures.ThreadPoolExecutor(
            max_workers=request_workers
        ) as pool:
            for line in stdin:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except ValueError as err:
                    emit(server._error(None, PARSE_ERROR, f"invalid JSON: {err}"))
                    continue
                if isinstance(payload, list):
                    futures = [pool.submit(server.handle, r) for r in payload]
                    emit(encode_response([f.result() for f in futures]))
                else:
                    pool.submit(server.handle, payload).add_done_callback(
                        lambda f: emit(f.result())
                    )
                if server.stopped:
                    break
    finally:
        server.close()
    return 0


def make_http_server(
    server: PlanningServer, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """The HTTP half, not yet serving (callers own the lifecycle)."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def _respond(self, code: int, body: bytes, content_type: str) -> None:
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _json(self, code: int, obj) -> None:
            self._respond(code, encode_response(obj).encode(), "application/json")

        def do_POST(self):  # noqa: N802 — BaseHTTPRequestHandler contract
            length = int(self.headers.get("Content-Length") or 0)
            try:
                payload = json.loads(self.rfile.read(length) or b"")
            except ValueError as err:
                self._json(
                    400, server._error(None, PARSE_ERROR, f"invalid JSON: {err}")
                )
                return
            if isinstance(payload, list):
                with concurrent.futures.ThreadPoolExecutor(
                    max_workers=min(8, max(1, len(payload)))
                ) as pool:
                    response = list(pool.map(server.handle, payload))
            else:
                response = server.handle(payload)
            self._json(200, response)

        def do_GET(self):  # noqa: N802
            if self.path == "/metrics":
                self._respond(200, server.prometheus().encode(), "text/plain")
            elif self.path in ("/healthz", "/health"):
                self._json(200, {"ok": True, "stats": server.store.stats()})
            else:
                self._json(404, {"error": "unknown path"})

        def log_message(self, *args):  # silence per-request stderr noise
            pass

    return ThreadingHTTPServer((host, port), Handler)


def serve_http(
    server: PlanningServer, host: str = "127.0.0.1", port: int = 8787
) -> int:
    """Serve over HTTP until a ``shutdown`` request or KeyboardInterrupt."""
    httpd = make_http_server(server, host, port)

    def _watch_stop():
        server._stop.wait()
        httpd.shutdown()

    watcher = threading.Thread(target=_watch_stop, daemon=True)
    watcher.start()
    try:
        httpd.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        httpd.server_close()
        server.close()
    return 0
