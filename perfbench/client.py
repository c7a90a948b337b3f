"""A ``repro serve`` child over stdio, driven in a closed loop.

The reader thread only stamps each response line's arrival time and
pulls its ``id`` out of the line's fixed prefix; answers are decoded
and checked after the timed phase, so on a two-core host the client's
CPU does not compete with the server's. CPU time and peak RSS come from
``/proc/<pid>/stat`` and ``/proc/<pid>/status`` (no psutil).
"""

from __future__ import annotations

import json
import os
import queue
import subprocess
import threading
import time

CLK_TCK = os.sysconf("SC_CLK_TCK")
#: every stdio response starts with this (``json.dumps`` of the response dict)
_PREFIX = b'{"jsonrpc": "2.0", "id": '
#: longest wait for one answer (a cold sim plan takes about a second)
TIMEOUT_S = 120.0


class ServerError(RuntimeError):
    """The server died, hung, or answered outside the protocol."""


def _rid(line: bytes):
    if line.startswith(_PREFIX):
        end = line.find(b",", len(_PREFIX))
        token = line[len(_PREFIX):end]
        if token.isdigit():
            return int(token)
    try:
        return json.loads(line).get("id")
    except ValueError:
        return None


def encode(rid: int, method: str, params: dict) -> bytes:
    return (json.dumps({"jsonrpc": "2.0", "id": rid, "method": method, "params": params}) + "\n").encode()


class Server:
    """One server process; ``argv`` is the full command line."""

    def __init__(self, argv: list, env: dict, cwd: str, stderr_path: str):
        self._stderr = open(stderr_path, "ab")
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._stderr, env=env, cwd=cwd,
        )
        self.stderr_path = stderr_path
        self._arrivals: queue.SimpleQueue = queue.SimpleQueue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._arrivals.put((_rid(line), time.perf_counter(), line))
        self._arrivals.put((None, time.perf_counter(), None))

    @property
    def pid(self) -> int:
        return self.proc.pid

    def send(self, line: bytes) -> float:
        t = time.perf_counter()
        try:
            self.proc.stdin.write(line)
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError) as err:
            raise ServerError(f"server stdin closed: {err}; see {self.stderr_path}") from err
        return t

    def next_arrival(self, timeout: float):
        """(rid, t_arrival, line) of the next response line."""
        try:
            rid, t, line = self._arrivals.get(timeout=timeout)
        except queue.Empty:
            raise ServerError(f"no response within {timeout:.0f} s; see {self.stderr_path}") from None
        if line is None:
            raise ServerError(f"server exited with {self.proc.wait()}; see {self.stderr_path}")
        return rid, t, line

    def call(self, rid: int, method: str, timeout: float = TIMEOUT_S):
        """A control request outside the timed phase: (t_arrival, result)."""
        self.send(encode(rid, method, {}))
        got, t, line = self.next_arrival(timeout)
        if got != rid:
            raise ServerError(f"expected the answer to control request {rid}, got {got}")
        doc = json.loads(line)
        if "error" in doc:
            raise ServerError(f"{method} failed: {doc['error']}")
        return t, doc["result"]

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK  # utime + stime

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("VmHWM missing from /proc status")

    def close(self, timeout: float = TIMEOUT_S) -> int:
        """Close stdin (EOF ends ``serve_stdio`` normally) and wait."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            return self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise ServerError(f"server did not exit within {timeout:.0f} s") from None
        finally:
            self._stderr.close()

    def kill(self) -> None:
        """Stop without the shutdown flush (no snapshot rewrite)."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        self._reader.join(timeout=10)
        self._stderr.close()


def closed_loop(server: Server, rounds, window: int, stop, timeout: float = TIMEOUT_S):
    """Replay ``rounds`` with ``window`` requests outstanding.

    ``stop(issued)`` is asked at every round boundary; issuing ends there
    and the loop drains. Returns ``(requests, sends, arrivals, t0, t1)``:
    the issued requests in id order, their send stamps, and for each id
    its ``(t_arrival, line)``.
    """
    requests: list = []
    sends: list = []
    arrivals: dict = {}
    pending = []
    t0 = time.perf_counter()

    def refill() -> bool:
        while len(requests) - len(arrivals) < window:
            if not pending:
                if requests and stop(len(requests)):
                    return False
                batch = next(rounds)
                pending.extend(
                    (req, encode(len(requests) + i, req["method"], req["params"]))
                    for i, req in enumerate(batch)
                )
                pending.reverse()
            req, line = pending.pop()
            requests.append(req)
            sends.append(server.send(line))
        return True

    more = refill()
    while len(arrivals) < len(requests):
        rid, t, line = server.next_arrival(timeout)
        if not isinstance(rid, int) or not 0 <= rid < len(requests) or rid in arrivals:
            raise ServerError(f"unexpected response id {rid!r}")
        arrivals[rid] = (t, line)
        if more:
            more = refill()
    t1 = max(t for t, _ in arrivals.values())
    return requests, sends, arrivals, t0, t1
