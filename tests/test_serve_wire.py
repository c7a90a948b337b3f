"""The planning server's wire encoding: same bytes, cells encoded once.

:func:`repro.serve.encode_response` splices a plan answer from its
cells' cached JSON fragments. These tests pin the byte contract — every
response equals ``json.dumps`` of the same response built with
``to_dict()`` — over every server method, the golden store questions,
the api golden plans and a plan with no feasible config; and they check
that threads racing to encode the same new cells all write the same
bytes, and that both transports carry spliced answers unchanged.
"""

from __future__ import annotations

import importlib.util
import io
import json
import sys
import threading
from pathlib import Path

import pytest

from repro.api import Job, Machine, RobustPlanResult
from repro.autotune.result import PlanResult
from repro.serve import (
    PersistentEvaluationStore,
    PlanningServer,
    decode_response,
    encode_response,
    make_http_server,
    serve_stdio,
)
from repro.serve.server import INTERNAL_ERROR, INVALID_PARAMS, PARSE_ERROR
from repro.stochastic import MCRobustResult

GOLDEN = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location(
    "make_store_snapshot", GOLDEN / "make_store_snapshot.py"
)
generator = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generator)

JOB = {"model": "gpt3-xl", "n_gpus": 16}

#: (method, params) for every answering method of the server
METHODS = (
    ("plan", {"job": JOB}),
    ("robust_plan", {"job": {**JOB, "fidelity": "analytic-batch"}, "scenarios": "collective-degraded"}),
    ("mc_robust_plan", {"job": JOB, "process": "flaky-links", "samples": 4, "seed": 7}),
    ("replan", {"job": {"model": "gpt3-2.7b", "n_gpus": 16}, "failure": "skewed", "at": 0.3}),
    ("place", {"job": {"model": "gpt3-2.7b", "n_gpus": 16}, "swap_sweeps": 1}),
    ("breakdown", {"job": JOB}),
    ("metrics", {}),
    ("stats", {}),
    ("ping", {}),
    ("shutdown", {}),
)

#: the plans ``tests/test_api_golden.py`` pins, asked over the wire
API_GOLDEN_PLANS = (
    ("plan", {"job": {"model": "gpt3-xl", "n_gpus": 64}}),
    ("plan", {"job": {"model": "gpt3-xl", "n_gpus": 32, "fidelity": "sim"},
              "scenario": "straggler", "microbatch_sizes": [1]}),
)


def _rpc(method, params=None, rid=1):
    return {"jsonrpc": "2.0", "id": rid, "method": method, "params": params or {}}


def _assert_same_text(got: str, expected: str, what: str) -> None:
    """Equal strings, or a failure naming the first differing offset
    (pytest's own diff of two 100-KB lines takes minutes)."""
    if got != expected:
        at = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
                  min(len(got), len(expected)))
        lo = max(at - 40, 0)
        pytest.fail(f"{what}: differs at offset {at}: {got[lo:at + 40]!r} "
                    f"!= {expected[lo:at + 40]!r}")


def _plain(result):
    """The result as a dict, built as the server once built it: ``to_dict()``,
    then the server's pops."""
    if isinstance(result, PlanResult):
        return result.to_dict()
    if isinstance(result, RobustPlanResult):
        doc = result.to_dict()
        doc.pop("per_scenario", None)
        return doc
    if isinstance(result, MCRobustResult):
        doc = result.to_dict()
        for entry in doc["entries"]:
            entry.pop("sample_costs", None)
        return doc
    return result


def _assert_same_bytes(server: PlanningServer, method: str, params: dict, rid=1) -> None:
    """The server's result object, encoded both ways."""
    result = getattr(server, f"do_{method}")(params)
    response = {"jsonrpc": "2.0", "id": rid, "result": result}
    plain = _plain(result)
    _assert_same_text(encode_response(response), json.dumps({**response, "result": plain}), method)


def _without_stats(text: str) -> str:
    """A plan answer's text up to its per-request ``stats`` block."""
    return text[: text.rindex('"stats": ')]


class TestByteContract:
    def test_every_method(self, tmp_path):
        server = PlanningServer()
        for rid, (method, params) in enumerate(METHODS):
            _assert_same_bytes(server, method, params, rid=rid)
        _assert_same_bytes(server, "save", {"path": str(tmp_path / "store.jsonl")})
        # warm plans (every cell already encoded once) splice the same bytes
        _assert_same_bytes(server, *METHODS[0])

    def test_golden_store_questions(self):
        server = PlanningServer(store=PersistentEvaluationStore())
        for method, params in generator.QUESTIONS:
            _assert_same_bytes(server, method, params)

    def test_api_golden_plans(self):
        server = PlanningServer()
        for method, params in API_GOLDEN_PLANS:
            _assert_same_bytes(server, method, params)

    def test_plan_with_no_feasible_config(self):
        server = PlanningServer(machine=Machine.summit(budget_gb=8))
        params = {"job": {"model": "gpt3-xl", "n_gpus": 8},
                  "frameworks": ["deepspeed-3d"], "microbatch_sizes": [1]}
        plan = server.do_plan(params)
        assert plan.evaluations and not plan.feasible
        _assert_same_bytes(server, "plan", params)
        assert decode_response(server.handle(_rpc("plan", params)))["result"]["best"] is None

    def test_errors_and_batch_arrays(self):
        server = PlanningServer()
        texts = [
            server.handle(_rpc("plan", {"job": JOB}, rid=1)),
            server.handle(_rpc("no_such_method", rid=2)),
            server.handle({"id": 3}),
            server.handle(_rpc("plan", {"job": {**JOB, "n_gpus": 0}}, rid=4)),
        ]
        docs = [json.loads(t) for t in texts]
        for text, doc in zip(texts, docs):
            _assert_same_text(text, json.dumps(doc), "handle")
        _assert_same_text(encode_response(texts), json.dumps(docs), "batch array")
        assert encode_response([]) == json.dumps([])

    def test_request_values_json_writes_its_own_way(self):
        """Scenario names that are not strings and a bool micro-batch size
        come back as ``json.dumps`` writes them, on a fresh server each."""
        degraded = {"name": "degraded-ring", "cross_node_bw_multiplier": 0.4}
        scenarios = {"name": "odd", "members": [
            {"scenario": None, "weight": 1.0},
            {"scenario": {**degraded, "name": 5}, "weight": 2.0},
            {"scenario": {**degraded, "name": None, "cross_node_bw_multiplier": 0.6}, "weight": 1.0},
        ]}
        process = {"name": "odd", "horizon": 1.0, "kinds": [
            {"name": "k", "scenario": {**degraded, "name": 7.5},
             "rate": {"kind": "constant", "rate": 2.0}, "duration": 0.3},
        ]}
        narrow = {"frameworks": ["axonn", "axonn+samo"], "microbatch_sizes": [1]}
        batch = {**JOB, "fidelity": "analytic-batch"}
        for method, params in (
            ("robust_plan", {"job": batch, "scenarios": scenarios, **narrow}),
            ("mc_robust_plan", {"job": JOB, "process": process, "samples": 4, **narrow}),
            ("robust_plan", {"job": batch, "scenarios": "collective-degraded",
                             "microbatch_sizes": [True]}),
            ("mc_robust_plan", {"job": JOB, "process": "flaky-links", "samples": 4,
                                "microbatch_sizes": [True]}),
        ):
            _assert_same_bytes(PlanningServer(), method, params)

    def test_equal_numbers_of_another_type_are_other_questions(self):
        """``[true]``, ``[1.0]`` and ``[1]`` micro-batch sizes compare
        equal in Python, yet each is written into the answer as given:
        asked in turn on one server, in either order, each answer is the
        one a fresh server gives. A GPU count is a job field, which must
        be an integer: 16.0 is refused as invalid params."""
        narrow = {"frameworks": ["axonn", "axonn+samo"], "explore_no_checkpoint": False}
        batch = {**JOB, "fidelity": "analytic-batch"}
        server = PlanningServer()
        for n in (16.0, True):
            doc = decode_response(server.handle(_rpc("plan", {"job": {**JOB, "n_gpus": n}, **narrow})))
            assert doc["error"]["code"] == INVALID_PARAMS
            assert "n_gpus must be an integer" in doc["error"]["message"]
        assert server.store.stats()["entries"] == 0
        groups = (
            [("robust_plan", {"job": batch, "scenarios": "collective-degraded",
                              "microbatch_sizes": [m], **narrow}) for m in (True, 1.0, 1)],
        )
        for asks in groups:
            fresh = [_without_stats(PlanningServer().handle(_rpc(m, p))) for m, p in asks]
            for order in (range(len(asks)), reversed(range(len(asks)))):
                server = PlanningServer()
                for i in order:
                    method, params = asks[i]
                    _assert_same_text(_without_stats(server.handle(_rpc(method, params))),
                                      fresh[i], f"{method} {params}")

    def test_an_answer_that_cannot_be_written_is_an_error_reply(self):
        server = PlanningServer()
        server.do_ping = lambda params: {"unwritable": object()}
        doc = decode_response(server.handle(_rpc("ping", rid=9)))
        assert doc["id"] == 9 and doc["error"]["code"] == INTERNAL_ERROR
        assert "TypeError" in doc["error"]["message"]
        assert server.session.metrics()['serve.errors{method="ping"}'] == 1
        # stdio answers it too, singly and in a batch, and keeps reading
        lines = [json.dumps(_rpc("ping", rid=1)), json.dumps([_rpc("ping", rid=2)]),
                 json.dumps(_rpc("stats", rid=3))]
        stdout = io.StringIO()
        serve_stdio(server, io.StringIO("\n".join(lines) + "\n"), stdout, request_workers=1)
        single, batch, stats = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert single["error"]["code"] == batch[0]["error"]["code"] == INTERNAL_ERROR
        assert batch[0]["id"] == 2 and "result" in stats

    def test_fragment_is_the_cells_own_encoding(self):
        server = PlanningServer()
        plan = server.do_plan({"job": JOB})
        assert all(ev.fragment is None for ev in plan.evaluations)
        first = server.handle(_rpc("plan", {"job": JOB}))
        # the first encode only marks each cell and the second keeps its
        # text: the best cell is written twice per answer, the rest once
        best = plan.feasible[0]
        for ev in plan.evaluations:
            assert ev.fragment == (json.dumps(ev.to_dict()) if ev is best else "")
        second = server.handle(_rpc("plan", {"job": JOB}))
        for ev in plan.evaluations:
            assert ev.fragment == json.dumps(ev.to_dict())
        assert _without_stats(first) == _without_stats(second)
        # outside ==, hash and repr
        assert "fragment" not in repr(plan.evaluations[0])


class TestRacingEncodes:
    def test_threads_encoding_new_cells_write_identical_bytes(self):
        server = PlanningServer()
        job = {"model": "gpt3-xl", "n_gpus": 64}
        plan = server.session.plan(Job(**job))  # warm cells, no fragments yet
        assert all(ev.fragment is None for ev in plan.evaluations)
        n = 8
        barrier = threading.Barrier(n)
        texts = [None] * n

        def ask(i):
            barrier.wait()
            texts[i] = server.handle(_rpc("plan", {"job": job}, rid=1))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(i,)) for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        expected = _without_stats(json.dumps({"jsonrpc": "2.0", "id": 1, "result": plan.to_dict()}))
        for text in texts:
            _assert_same_text(_without_stats(text), expected, "racing plan answer")
        assert server.store.stats()["misses"] == len(plan.evaluations)  # the warm-up only


class TestTransports:
    def test_stdio_carries_spliced_plans_single_and_batched(self):
        server = PlanningServer()
        plan = _rpc("plan", {"job": JOB}, rid=1)
        lines = [
            json.dumps(plan),
            json.dumps([_rpc("plan", {"job": JOB}, rid=2), _rpc("ping", rid=3)]),
            json.dumps(_rpc("shutdown", rid=4)),
        ]
        stdout = io.StringIO()
        assert serve_stdio(server, io.StringIO("\n".join(lines) + "\n"), stdout,
                           request_workers=1) == 0
        out = stdout.getvalue().splitlines()
        single, batch = json.loads(out[0]), json.loads(out[1])
        reference = server.session.plan(Job(**JOB)).to_dict()
        for doc in (single["result"], batch[0]["result"]):
            doc.pop("stats")
            assert doc == {k: v for k, v in reference.items() if k != "stats"}
        assert batch[1]["result"] == {"ok": True}

    @pytest.mark.parametrize("body", ["single", "batch"])
    def test_http_carries_spliced_plans(self, body):
        from http.client import HTTPConnection

        server = PlanningServer()
        httpd = make_http_server(server, port=0)  # loopback, any free port
        thread = threading.Thread(
            target=httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        try:
            payload = _rpc("plan", {"job": JOB})
            if body == "batch":
                payload = [payload, _rpc("ping", rid=2)]
            conn = HTTPConnection("127.0.0.1", httpd.server_address[1], timeout=30)
            conn.request("POST", "/", body=json.dumps(payload).encode(),
                         headers={"Content-Type": "application/json"})
            doc = json.loads(conn.getresponse().read())
            conn.close()
        finally:
            httpd.shutdown()
            httpd.server_close()
        answer = doc[0] if body == "batch" else doc
        answer["result"].pop("stats")
        reference = server.session.plan(Job(**JOB)).to_dict()
        reference.pop("stats")
        assert answer["result"] == reference

    @pytest.mark.parametrize("length", ["-1", "abc", "1.5"])
    def test_http_refuses_a_content_length_that_is_not_a_count(self, length):
        """Answered with HTTP 400 and a JSON-RPC parse error, then the
        connection closes. Read as a count, -1 would hold the handler
        until the client hangs up and abc would drop the connection
        unanswered; the socket timeout keeps such a handler from
        hanging the test."""
        import socket

        server = PlanningServer()
        httpd = make_http_server(server, port=0)
        thread = threading.Thread(
            target=httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        try:
            with socket.create_connection(httpd.server_address, timeout=10) as sock:
                sock.sendall(
                    b"POST / HTTP/1.1\r\nHost: localhost\r\n"
                    b"Content-Type: application/json\r\n"
                    + f"Content-Length: {length}\r\n\r\n".encode()
                )
                reply = b""
                while chunk := sock.recv(65536):
                    reply += chunk
        finally:
            httpd.shutdown()
            httpd.server_close()
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        error = json.loads(body)["error"]
        assert error["code"] == PARSE_ERROR and repr(length) in error["message"]
