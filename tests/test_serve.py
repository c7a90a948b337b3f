"""Planning-as-a-service: store, single-flight, server, warm-start.

Covers the `repro.serve` subsystem plus the concurrency contracts this
PR hardened in `EvaluationCache`:

* key codec round-trips (decoded keys hash/compare equal to fresh ones);
* LRU bounds + eviction accounting;
* persistence: atomic snapshot, warm-start, corrupt-file quarantine;
* request-level single flight: one owner per cell, one flight per
  request, coalesced waiters, abandon on error;
* key-prefix interning bounded by the stored and in-flight cells;
* threaded hammer over one cache: no exceptions, ``hits + misses ==
  gets`` (the torn-read satellite fix);
* session-level coalescing: a thundering herd of identical ``plan``
  requests prices each candidate exactly once;
* the JSON-RPC server: every method, error codes, both byte-identical
  warm-start answers after a kill-and-restart, and the stdio transport.
"""

from __future__ import annotations

import io
import json
import os
import random
import threading

import pytest

from repro.api import Job, Machine, Session
from repro.autotune.cache import EvaluationCache, evaluation_cache_key
from repro.autotune.estimator import make_estimator
from repro.models import get_spec
from repro.parallel.scenarios import get_scenario
from repro.serve import (
    STORE_FORMAT,
    STORE_VERSION,
    PersistentEvaluationStore,
    PlanningServer,
    decode_key,
    decode_response,
    encode_key,
    serve_stdio,
)


def _one_evaluation(model="gpt3-xl", n_gpus=8):
    """A real (key, Evaluation) pair to feed stores in unit tests."""
    spec = get_spec(model)
    machine = Machine.summit()
    est = make_estimator("analytic", spec, machine.cal)
    from repro.autotune.space import SearchSpace

    config = next(iter(SearchSpace(spec, n_gpus).candidates()))
    key = evaluation_cache_key(machine, spec, "analytic", config)
    return key, est.evaluate(config)


# ---------------------------------------------------------------------------
# key codec
# ---------------------------------------------------------------------------

class TestKeyCodec:
    def test_round_trip_neutral_key(self):
        key, _ = _one_evaluation()
        decoded = decode_key(encode_key(key))
        assert decoded == key
        assert hash(decoded) == hash(key)

    def test_round_trip_scenario_key(self):
        spec = get_spec("gpt3-xl")
        machine = Machine.summit(budget_gb=12)
        from repro.autotune.space import SearchSpace

        config = next(iter(SearchSpace(spec, 8).candidates()))
        key = evaluation_cache_key(
            machine, spec, "sim", config,
            scenario=get_scenario("degraded-ring"), partition_mode="time",
        )
        decoded = decode_key(encode_key(key))
        assert decoded == key
        assert hash(decoded) == hash(key)

    def test_json_round_trip_preserves_equality(self):
        key, _ = _one_evaluation()
        wire = json.loads(json.dumps(encode_key(key)))
        assert decode_key(wire) == key

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            encode_key(object())
        with pytest.raises(ValueError):
            decode_key({"__mystery__": 1})


# ---------------------------------------------------------------------------
# the store: LRU + persistence
# ---------------------------------------------------------------------------

class TestStoreLRU:
    def test_eviction_is_lru_and_counted(self):
        store = PersistentEvaluationStore(max_entries=3)
        key, ev = _one_evaluation()
        keys = [(*key, i) for i in range(5)]
        for k in keys:
            store.put(k, ev)
        assert len(store) == 3
        assert store.evictions == 2
        assert keys[0] not in store and keys[1] not in store
        assert all(k in store for k in keys[2:])

    def test_get_refreshes_recency(self):
        store = PersistentEvaluationStore(max_entries=2)
        key, ev = _one_evaluation()
        a, b, c = (*key, "a"), (*key, "b"), (*key, "c")
        store.put(a, ev)
        store.put(b, ev)
        assert store.get(a) is ev  # a becomes most-recent
        store.put(c, ev)  # evicts b, not a
        assert a in store and c in store and b not in store

    def test_request_claims_evict_like_cell_by_cell_lookups(self):
        """acquire/fulfil scans and publishes row-major, so recency,
        evictions and counts match get/put over the same cells."""
        key, ev = _one_evaluation()
        prefixes = [(*key[:-1], c) for c in "ab"]
        requests = [[f"h{i}" for i in range(k, k + 4)] for k in (0, 2, 5, 1, 0)]
        by_claim = PersistentEvaluationStore(max_entries=5)
        by_cell = PersistentEvaluationStore(max_entries=5)
        for hashes in requests:
            claim = by_claim.acquire(prefixes, hashes)
            for i in claim.owned:
                claim.values[i] = ev
            by_claim.fulfil(claim)
            cells = [(*p, h) for h in hashes for p in prefixes]
            missing = [c for c in cells if by_cell.get(c) is None]
            for c in missing:
                by_cell.put(c, ev)
        assert by_claim.keys() == by_cell.keys()
        for stat in ("hits", "misses", "evictions", "entries", "prefixes"):
            assert by_claim.stats()[stat] == by_cell.stats()[stat], stat

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            PersistentEvaluationStore(max_entries=-1)
        with pytest.raises(ValueError):
            PersistentEvaluationStore(autosave_every=-1)


class TestStorePersistence:
    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "evals.jsonl"
        store = PersistentEvaluationStore(path=path)
        key, ev = _one_evaluation()
        store.put(key, ev)
        assert store.save() == 1
        header = json.loads(path.read_text().splitlines()[0])
        assert header["format"] == STORE_FORMAT
        assert header["version"] == STORE_VERSION

        warm = PersistentEvaluationStore(path=path)
        assert warm.load() == 1
        assert warm.loaded == 1
        assert warm.get(key).to_dict() == ev.to_dict()

    def test_missing_file_starts_cold(self, tmp_path):
        store = PersistentEvaluationStore(path=tmp_path / "nope.jsonl")
        assert store.load() == 0
        assert store.quarantined is None

    def test_save_without_path_raises(self):
        with pytest.raises(ValueError):
            PersistentEvaluationStore().save()

    def test_atomic_save_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "evals.jsonl"
        store = PersistentEvaluationStore(path=path)
        key, ev = _one_evaluation()
        store.put(key, ev)
        store.save()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["evals.jsonl"]

    def test_corrupt_header_quarantined(self, tmp_path):
        path = tmp_path / "evals.jsonl"
        path.write_text("this is not a snapshot\n")
        store = PersistentEvaluationStore(path=path)
        assert store.load() == 0
        assert store.quarantined is not None
        assert not path.exists()
        assert os.path.exists(store.quarantined)

    def test_corrupt_record_keeps_valid_prefix(self, tmp_path):
        path = tmp_path / "evals.jsonl"
        store = PersistentEvaluationStore(path=path)
        key, ev = _one_evaluation()
        store.put(key, ev)
        store.save()
        with open(path, "a") as fh:
            fh.write('{"key": "torn write\n')
        warm = PersistentEvaluationStore(path=path)
        assert warm.load() == 1  # the valid prefix survives
        assert warm.quarantined is not None
        assert warm.get(key) is not None

    def test_wrong_version_quarantined(self, tmp_path):
        path = tmp_path / "evals.jsonl"
        path.write_text(
            json.dumps({"format": STORE_FORMAT, "version": STORE_VERSION + 99})
            + "\n"
        )
        store = PersistentEvaluationStore(path=path)
        assert store.load() == 0
        assert store.quarantined is not None

    def test_autosave_every_n_puts(self, tmp_path):
        path = tmp_path / "evals.jsonl"
        store = PersistentEvaluationStore(path=path, autosave_every=2)
        key, ev = _one_evaluation()
        store.put((*key, 1), ev)
        assert not path.exists()
        store.put((*key, 2), ev)
        assert path.exists()
        assert PersistentEvaluationStore(path=path).load() == 2


# ---------------------------------------------------------------------------
# single-flight
# ---------------------------------------------------------------------------

class TestSingleFlight:
    """Request-level claims: :meth:`acquire` sorts a whole candidates ×
    columns matrix into hits, owned cells and cells to wait on."""

    @staticmethod
    def _cell():
        key, ev = _one_evaluation()
        return key[:-1], key[-1], ev

    def test_one_owner_per_key(self):
        store = PersistentEvaluationStore()
        prefix, h, ev = self._cell()
        first = store.acquire([prefix], [h])
        assert first.owned == [0] and not first.waits and first.values == [None]
        # a second request coalesces onto the first's flight
        second = store.acquire([prefix], [h])
        assert not second.owned and second.waits == {first.flight: [0]}
        assert store.coalesced == 1
        first.values[0] = ev
        store.fulfil(first)
        assert second.wait(timeout=5) == [ev]
        # once stored, a claim finds it as a hit
        third = store.acquire([prefix], [h])
        assert third.values == [ev] and not third.owned and not third.waits
        s = store.stats()
        assert (s["hits"], s["misses"], s["inflight"]) == (1, 2, 0)

    def test_matrix_is_claimed_row_major_under_one_flight(self):
        store = PersistentEvaluationStore()
        prefix, h, ev = self._cell()
        prefixes = [(*prefix, "a"), (*prefix, "b")]
        hashes = [f"{h}-{i}" for i in range(3)]
        store.put((*prefixes[1], hashes[0]), ev)
        claim = store.acquire(prefixes, hashes)
        # row-major: (h0, a), (h0, b), (h1, a), ...; (h0, b) was stored
        assert claim.values == [None, ev, None, None, None, None]
        assert claim.owned == [0, 2, 3, 4, 5]
        assert [claim.cell(i)[1] for i in claim.owned] == [
            hashes[0], hashes[1], hashes[1], hashes[2], hashes[2]
        ]
        # a herd member waiting on the whole matrix waits on ONE flight
        other = store.acquire(prefixes, hashes)
        assert list(other.waits) == [claim.flight]
        assert other.waits[claim.flight] == claim.owned
        for i in claim.owned:
            claim.values[i] = ev
        store.fulfil(claim)
        assert other.wait(timeout=5) == [ev] * 6
        assert len(store) == 6 and store.stats()["inflight"] == 0

    def test_coalesced_herd_gets_one_value(self):
        store = PersistentEvaluationStore()
        prefix, h, ev = self._cell()
        owner = store.acquire([prefix], [h])
        assert owner.owned == [0]
        n = 6
        got = []
        barrier = threading.Barrier(n + 1)

        def wait_one():
            claim = store.acquire([prefix], [h])
            barrier.wait()
            got.append(claim.wait(timeout=10)[0])

        threads = [threading.Thread(target=wait_one) for _ in range(n)]
        for t in threads:
            t.start()
        barrier.wait()  # every waiter is parked before the owner fulfils
        owner.values[0] = ev
        store.fulfil(owner)
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        assert got == [ev] * n
        assert store.coalesced == n
        assert store.stats()["inflight"] == 0

    def test_overlapping_claims_price_each_cell_once(self):
        """Many threads claim random overlapping matrices over a small
        cell universe, fast thread switching on: every cell is owned by
        exactly one claim, every claim sees the owner's value, and
        nothing is left in flight."""
        import sys

        store = PersistentEvaluationStore()
        prefix, h, _ = self._cell()
        prefixes = [(*prefix, c) for c in "abc"]
        hashes = [f"{h}-{i}" for i in range(12)]
        n_threads, rounds = 8, 40
        owned_cells, seen, errors = [], [], []

        def worker(tid):
            rng = random.Random(tid)
            try:
                for _ in range(rounds):
                    cols = rng.sample(prefixes, rng.randint(1, 3))
                    rows = rng.sample(hashes, rng.randint(1, 6))
                    claim = store.acquire(cols, rows)
                    for i in claim.owned:
                        claim.values[i] = ("priced", claim.cell(i))
                        owned_cells.append(claim.cell(i))
                    store.fulfil(claim)
                    for i, value in enumerate(claim.wait(timeout=10)):
                        seen.append((claim.cell(i), value))
            except Exception as err:  # pragma: no cover - the assertion
                errors.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert len(owned_cells) == len(set(owned_cells)) == len(store)
        assert all(value == ("priced", cell) for cell, value in seen)
        s = store.stats()
        assert s["inflight"] == 0 and s["dedup"] == 0
        assert s["hits"] + s["misses"] == len(seen)
        assert s["prefixes"] == len({cell[0] for cell in owned_cells})

    def test_abandon_wakes_waiters_with_error(self):
        store = PersistentEvaluationStore()
        prefix, h, _ = self._cell()
        owner = store.acquire([prefix], [h])
        waiter = store.acquire([prefix], [h])
        store.abandon(owner, RuntimeError("estimator exploded"))
        with pytest.raises(RuntimeError):
            waiter.wait(timeout=5)
        assert (*prefix, h) not in store
        # the abandoned cell is claimable again, and its prefix was
        # forgotten with the last cell that held it
        assert store.stats()["prefixes"] == 0
        assert store.acquire([prefix], [h]).owned == [0]


class TestPrefixInterning:
    def test_bounded_store_forgets_prefixes_with_their_cells(self):
        from repro.parallel.scenarios import ClusterScenario

        store = PersistentEvaluationStore(max_entries=8)
        session = Session(Machine.summit(), cache=store)
        job = Job(model="gpt3-xl", n_gpus=16, fidelity="analytic-batch")
        axes = {"frameworks": ("axonn",), "microbatch_sizes": (1,),
                "explore_no_checkpoint": False}
        for i in range(50):
            inline = ClusterScenario(
                name=f"inline-{i}", cross_node_bw_multiplier=0.5 + i / 200
            )
            session.plan(job, scenario=inline, **axes)
        s = store.stats()
        assert s["entries"] <= 8 and s["inflight"] == 0
        assert s["evictions"] > 0
        # every interned prefix still holds a stored cell
        live = {key[:-1] for key in store.keys()}
        assert s["prefixes"] == len(live)


# ---------------------------------------------------------------------------
# the concurrency satellite: hammer one cache from many threads
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "make_cache",
    [EvaluationCache, PersistentEvaluationStore],
    ids=["EvaluationCache", "PersistentEvaluationStore"],
)
class TestConcurrentHammer:
    N_THREADS = 8
    OPS = 400

    def test_counters_reconcile_without_clear(self, make_cache):
        cache = make_cache()
        key, ev = _one_evaluation()
        keys = [(*key, i) for i in range(16)]
        gets = [0] * self.N_THREADS
        errors = []

        def hammer(tid):
            rng = random.Random(tid)
            try:
                for _ in range(self.OPS):
                    op = rng.random()
                    k = keys[rng.randrange(len(keys))]
                    if op < 0.45:
                        cache.get(k)
                        gets[tid] += 1
                    elif op < 0.8:
                        cache.put(k, ev)
                    elif op < 0.9:
                        k in cache  # noqa: B015 — exercising __contains__
                        len(cache)
                    else:
                        s = cache.stats()
                        assert set(s) >= {"entries", "hits", "misses", "dedup"}
            except Exception as err:  # pragma: no cover - the assertion
                errors.append(err)

        threads = [
            threading.Thread(target=hammer, args=(t,))
            for t in range(self.N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        s = cache.stats()
        assert s["hits"] + s["misses"] == sum(gets)
        assert 0 < s["entries"] <= len(keys)

    def test_no_exceptions_with_concurrent_clear(self, make_cache):
        cache = make_cache()
        key, ev = _one_evaluation()
        keys = [(*key, i) for i in range(8)]
        errors = []

        def hammer(tid):
            rng = random.Random(tid)
            try:
                for _ in range(self.OPS):
                    op = rng.random()
                    k = keys[rng.randrange(len(keys))]
                    if op < 0.4:
                        cache.get(k)
                    elif op < 0.8:
                        cache.put(k, ev)
                    elif op < 0.95:
                        s = cache.stats()
                        assert all(v >= 0 for v in s.values() if isinstance(v, int))
                    else:
                        cache.clear()
            except Exception as err:  # pragma: no cover - the assertion
                errors.append(err)

        threads = [
            threading.Thread(target=hammer, args=(t,))
            for t in range(self.N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


# ---------------------------------------------------------------------------
# session-level coalescing
# ---------------------------------------------------------------------------

class TestSessionCoalescing:
    def test_store_plan_matches_plain_cache_plan(self):
        job = Job(model="gpt3-xl", n_gpus=16)
        plain = Session(Machine.summit(), cache=EvaluationCache()).plan(job)
        stored = Session(
            Machine.summit(), cache=PersistentEvaluationStore()
        ).plan(job)
        assert [e.to_dict() for e in stored.evaluations] == [
            e.to_dict() for e in plain.evaluations
        ]
        assert stored.stats.evaluated == plain.stats.evaluated
        assert stored.stats.cache_hits == plain.stats.cache_hits

    def test_store_robust_matrix_matches_plain_cache(self):
        job = Job(model="gpt3-xl", n_gpus=16, fidelity="analytic-batch")
        plain = Session(Machine.summit(), cache=EvaluationCache()).robust_plan(
            job, "collective-degraded"
        )
        stored = Session(
            Machine.summit(), cache=PersistentEvaluationStore()
        ).robust_plan(job, "collective-degraded")
        assert [e.to_dict() for e in stored.entries] == [
            e.to_dict() for e in plain.entries
        ]

    def test_thundering_herd_prices_each_candidate_once(self):
        store = PersistentEvaluationStore()
        session = Session(Machine.summit(), cache=store)
        job = Job(model="gpt3-xl", n_gpus=16, fidelity="sim")
        n = 6
        barrier = threading.Barrier(n)
        results = [None] * n
        errors = []

        def worker(i):
            try:
                barrier.wait()
                results[i] = session.plan(job)
            except Exception as err:  # pragma: no cover - the assertion
                errors.append(err)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        n_candidates = results[0].stats.candidates
        # the exactly-once contract: total evaluations across the herd
        # equal one cold search, however ownership was distributed
        assert sum(r.stats.evaluated for r in results) == n_candidates
        assert store.dedup == 0  # nobody overwrote anybody's entry
        # every request saw the identical ranking
        first = [e.to_dict() for e in results[0].evaluations]
        for r in results[1:]:
            assert [e.to_dict() for e in r.evaluations] == first
        # counted on the session registry for /metrics
        snap = session.metrics()
        assert snap.get("serve.inflight_coalesced", 0) == store.coalesced

    def test_abandon_on_estimator_failure_releases_waiters(self):
        store = PersistentEvaluationStore()
        session = Session(Machine.summit(), cache=store)
        job = Job(model="gpt3-xl", n_gpus=8)

        import repro.api.session as session_mod

        real = session_mod.make_estimator

        def broken(*args, **kwargs):
            est = real(*args, **kwargs)
            def boom(configs, scenarios=None):
                raise RuntimeError("estimator exploded")
            est.evaluate_batch = boom  # the entry analytic cells are priced by
            return est

        session_mod.make_estimator = broken
        try:
            with pytest.raises(RuntimeError):
                session.plan(job)
        finally:
            session_mod.make_estimator = real
        # every owned key was abandoned: nothing left in flight, and a
        # retry with the healed estimator succeeds
        assert store.stats()["inflight"] == 0
        assert session.plan(job).best is not None


# ---------------------------------------------------------------------------
# the server
# ---------------------------------------------------------------------------

def _rpc(method, params=None, rid=1):
    return {"jsonrpc": "2.0", "id": rid, "method": method, "params": params or {}}


class TestPlanningServer:
    def test_every_method_answers(self):
        srv = PlanningServer()
        job = {"model": "gpt3-xl", "n_gpus": 16}
        plan = decode_response(srv.handle(_rpc("plan", {"job": job})))
        assert plan["result"]["best"] is not None
        robust = decode_response(srv.handle(
            _rpc("robust_plan", {"job": {**job, "fidelity": "analytic-batch"},
                                 "scenarios": "neutral"})
        ))
        assert robust["result"]["best"] is not None
        assert "per_scenario" not in robust["result"]
        place = decode_response(
            srv.handle(_rpc("place", {"job": {"model": "gpt3-2.7b", "n_gpus": 16}}))
        )
        assert place["result"]["makespan"] <= place["result"]["default_makespan"]
        breakdown = decode_response(srv.handle(_rpc("breakdown", {"job": job})))
        assert breakdown["result"]["total"] > 0
        assert decode_response(srv.handle(_rpc("ping")))["result"]["ok"]
        stats = decode_response(srv.handle(_rpc("stats")))["result"]
        assert stats["entries"] > 0
        metrics = decode_response(srv.handle(_rpc("metrics")))["result"]
        assert 'serve.requests{method="plan"}' in metrics["session"]
        assert metrics["store"]["entries"] == stats["entries"]

    def test_plan_search_axis_params(self):
        srv = PlanningServer()
        r = decode_response(srv.handle(
            _rpc("plan", {
                "job": {"model": "gpt3-xl", "n_gpus": 16},
                "frameworks": ["axonn"],
                "microbatch_sizes": [1],
                "explore_no_checkpoint": False,
            })
        ))
        rows = r["result"]["evaluations"]
        assert rows and all(e["config"]["framework"] == "axonn" for e in rows)
        assert all(e["config"]["mbs"] == 1 for e in rows)

    def test_error_codes(self):
        srv = PlanningServer()
        assert decode_response(srv.handle(_rpc("no_such_method")))["error"]["code"] == -32601
        assert decode_response(srv.handle({"id": 1}))["error"]["code"] == -32700
        assert decode_response(srv.handle(_rpc("plan")))["error"]["code"] == -32602
        bad_job = decode_response(
            srv.handle(_rpc("plan", {"job": {"model": "gpt3-xl", "n_gpus": 0}}))
        )
        assert bad_job["error"]["code"] == -32602
        bad_params = decode_response(srv.handle(
            {"jsonrpc": "2.0", "id": 2, "method": "plan", "params": [1, 2]}
        ))
        assert bad_params["error"]["code"] == -32602
        errors = srv.session.metrics()
        assert errors.get('serve.errors{method="plan"}', 0) >= 2

    def test_shutdown_sets_stop(self):
        srv = PlanningServer()
        assert not srv.stopped
        assert decode_response(srv.handle(_rpc("shutdown")))["result"]["stopping"]
        assert srv.stopped

    def test_warm_start_serves_byte_identical_answers(self, tmp_path):
        path = tmp_path / "evals.jsonl"
        requests = [
            _rpc("plan", {"job": {"model": "gpt3-xl", "n_gpus": 16}}, rid=1),
            _rpc("robust_plan", {
                "job": {"model": "gpt3-xl", "n_gpus": 16, "fidelity": "analytic-batch"},
                "scenarios": "collective-degraded",
            }, rid=2),
        ]

        def answers(server):
            docs = []
            for req in requests:
                result = decode_response(server.handle(req))["result"]
                result.pop("stats")  # wall-seconds/hit counts are volatile
                docs.append(json.dumps(result, sort_keys=True))
            return docs

        cold_srv = PlanningServer(store=PersistentEvaluationStore(path=path))
        cold = answers(cold_srv)
        cold_srv.close()  # the kill: flush and drop the process state

        warm_srv = PlanningServer(store=PersistentEvaluationStore(path=path))
        assert warm_srv.store.loaded > 0
        warm = answers(warm_srv)
        assert warm == cold  # byte-identical answers
        s = warm_srv.store.stats()
        assert s["misses"] == 0  # served entirely from the warm store

    def test_stdio_transport_round_trip(self):
        srv = PlanningServer()
        lines = [
            json.dumps(_rpc("ping", rid=1)),
            json.dumps([_rpc("stats", rid=2), _rpc("ping", rid=3)]),
            "not json at all",
            json.dumps(_rpc("shutdown", rid=4)),
        ]
        stdout = io.StringIO()
        rc = serve_stdio(srv, io.StringIO("\n".join(lines) + "\n"), stdout,
                         request_workers=2)
        assert rc == 0
        responses = [json.loads(l) for l in stdout.getvalue().splitlines()]
        by_id = {}
        parse_errors = 0
        for r in responses:
            items = r if isinstance(r, list) else [r]
            for item in items:
                if item.get("id") is None:
                    parse_errors += 1
                    assert item["error"]["code"] == -32700
                else:
                    by_id[item["id"]] = item
        assert parse_errors == 1
        assert by_id[1]["result"]["ok"]
        assert by_id[2]["result"]["entries"] == 0
        assert by_id[3]["result"]["ok"]
        assert by_id[4]["result"]["stopping"]


# ---------------------------------------------------------------------------
# Monte-Carlo planning over the wire
# ---------------------------------------------------------------------------

class TestServeStochastic:
    MC_PARAMS = {
        "job": {"model": "gpt3-xl", "n_gpus": 16},
        "process": "flaky-links",
        "samples": 8,
        "seed": 7,
    }

    def test_mc_robust_plan_answers_and_slims_the_wire(self):
        srv = PlanningServer()
        result = decode_response(
            srv.handle(_rpc("mc_robust_plan", self.MC_PARAMS))
        )["result"]
        assert result["process"]["name"] == "flaky-links"
        assert result["fidelity"] == "analytic-batch"
        assert result["best"] is not None
        # per-candidate sample vectors stay server-side; the best entry
        # keeps its vector (nested under "best") for CI re-derivation
        assert all("sample_costs" not in e for e in result["entries"])
        assert len(result["best"]["sample_costs"]) == 8

    def test_replan_answers(self):
        srv = PlanningServer()
        result = decode_response(srv.handle(_rpc("replan", {
            "job": {"model": "gpt3-2.7b", "n_gpus": 16},
            "failure": "skewed",
            "at": 0.3,
        })))["result"]
        assert result["decision"] == "re-partition"
        assert result["remaining_batches"] == pytest.approx(350.0)

    def test_missing_params_are_invalid_params(self):
        srv = PlanningServer()
        job = {"job": {"model": "gpt3-xl", "n_gpus": 16}}
        assert decode_response(srv.handle(_rpc("mc_robust_plan", job)))["error"]["code"] == -32602
        assert decode_response(srv.handle(_rpc("replan", job)))["error"]["code"] == -32602
        bad = decode_response(
            srv.handle(_rpc("mc_robust_plan", {**self.MC_PARAMS, "process": "nope"}))
        )
        assert bad["error"]["code"] == -32602

    def test_inline_process_document_accepted(self):
        from repro.stochastic import get_process

        srv = PlanningServer()
        inline = {**self.MC_PARAMS,
                  "process": get_process("flaky-links").to_dict()}
        by_doc = decode_response(srv.handle(_rpc("mc_robust_plan", inline)))["result"]
        by_name = decode_response(
            srv.handle(_rpc("mc_robust_plan", self.MC_PARAMS))
        )["result"]
        by_doc.pop("stats"), by_name.pop("stats")
        assert json.dumps(by_doc, sort_keys=True) == json.dumps(
            by_name, sort_keys=True
        )

    def test_sampled_scenario_cache_keys_round_trip_the_codec(self):
        srv = PlanningServer()
        srv.handle(_rpc("mc_robust_plan", self.MC_PARAMS))
        keys = list(srv.store.keys())
        assert keys
        for key in keys:
            decoded = decode_key(encode_key(key))
            assert decoded == key
            assert hash(decoded) == hash(key)
        # the matrix priced real scenario columns, not just the neutral one
        assert any("slow-ring-link" in json.dumps(encode_key(k)) for k in keys)

    def test_mc_warm_restart_serves_byte_identical_answers(self, tmp_path):
        path = tmp_path / "evals.jsonl"
        requests = [
            _rpc("mc_robust_plan", self.MC_PARAMS, rid=1),
            _rpc("replan", {
                "job": {"model": "gpt3-2.7b", "n_gpus": 16},
                "failure": "skewed", "at": 0.3,
            }, rid=2),
        ]

        def answers(server):
            docs = []
            for req in requests:
                result = decode_response(server.handle(req))["result"]
                result.pop("stats", None)  # hit counts are volatile
                docs.append(json.dumps(result, sort_keys=True))
            return docs

        cold_srv = PlanningServer(store=PersistentEvaluationStore(path=path))
        cold = answers(cold_srv)
        cold_srv.close()

        warm_srv = PlanningServer(store=PersistentEvaluationStore(path=path))
        assert warm_srv.store.loaded > 0
        warm = answers(warm_srv)
        assert warm == cold  # byte-identical across the restart
        assert warm_srv.store.stats()["misses"] == 0

    def test_mc_over_stdio_transport(self):
        srv = PlanningServer()
        lines = [
            json.dumps(_rpc("mc_robust_plan",
                            {**self.MC_PARAMS, "samples": 4}, rid=1)),
            json.dumps(_rpc("shutdown", rid=2)),
        ]
        stdout = io.StringIO()
        rc = serve_stdio(srv, io.StringIO("\n".join(lines) + "\n"), stdout,
                         request_workers=2)
        assert rc == 0
        responses = [json.loads(l) for l in stdout.getvalue().splitlines()]
        by_id = {r["id"]: r for r in responses}
        assert by_id[1]["result"]["samples"] == 4
        assert by_id[1]["result"]["best"] is not None
        assert by_id[2]["result"]["stopping"]
