"""Golden pin for the evaluation-store snapshot format (version 1).

``tests/golden/store_snapshot.jsonl`` was written by an earlier store
whose cells were keyed by full key tuples; the current store keys cells
by interned prefixes but still writes and reads every record under its
full tuple. ``tests/golden/make_store_snapshot.py`` holds the questions
that priced it and ``store_snapshot_answers.json`` their answers.
A warm start from the file must answer every question with zero misses
and the pinned answers, a cold store must compute the same answers, and
``save()`` after ``load()`` must rewrite the file byte for byte.
"""

import importlib.util
import json
import shutil
from pathlib import Path

from repro.serve import PersistentEvaluationStore, PlanningServer

GOLDEN = Path(__file__).parent / "golden"
SNAPSHOT = GOLDEN / "store_snapshot.jsonl"
ANSWERS = GOLDEN / "store_snapshot_answers.json"

_spec = importlib.util.spec_from_file_location(
    "make_store_snapshot", GOLDEN / "make_store_snapshot.py"
)
generator = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generator)


def _answers(server: PlanningServer) -> str:
    answers = [generator.answer(server, m, p) for m, p in generator.QUESTIONS]
    return json.dumps(answers, sort_keys=True, indent=1) + "\n"


def _copy(tmp_path: Path) -> Path:
    # load() quarantines a corrupt file by renaming it: never the original
    path = tmp_path / "store.jsonl"
    shutil.copyfile(SNAPSHOT, path)
    return path


def test_warm_start_answers_with_zero_misses(tmp_path):
    store = PersistentEvaluationStore(path=_copy(tmp_path))
    server = PlanningServer(store=store)
    n_records = len(SNAPSHOT.read_text().splitlines()) - 1
    assert store.loaded == n_records > 0
    assert store.quarantined is None
    assert _answers(server) == ANSWERS.read_text()
    stats = store.stats()
    assert stats["misses"] == 0 and stats["hits"] > 0
    assert stats["entries"] == n_records


def test_cold_store_computes_the_pinned_answers():
    assert _answers(PlanningServer(store=PersistentEvaluationStore())) == ANSWERS.read_text()


def test_save_rewrites_the_snapshot_byte_for_byte(tmp_path):
    store = PersistentEvaluationStore()
    assert store.load(_copy(tmp_path)) > 0
    out = tmp_path / "resaved.jsonl"
    store.save(out)
    assert out.read_bytes() == SNAPSHOT.read_bytes()


def test_loaded_cells_share_one_prefix_object_per_workload(tmp_path):
    store = PersistentEvaluationStore()
    store.load(_copy(tmp_path))
    calibrations = {id(key[4]) for key in store.keys()}
    prefixes = {key[:-1] for key in store.keys()}
    # one decoded calibration object per distinct key prefix at most
    assert len(calibrations) <= len(prefixes) == store.stats()["prefixes"]


def test_loaded_cells_share_configs_and_decompositions(tmp_path):
    store = PersistentEvaluationStore()
    store.load(_copy(tmp_path))
    keys = store.keys()
    cells = [store.get(key) for key in keys]
    configs: dict = {}
    pcfgs: dict = {}
    for key, ev in zip(keys, cells):
        configs.setdefault(key[-1], set()).add(id(ev.config))
        pcfgs.setdefault(ev.breakdown.config, set()).add(id(ev.breakdown.config))
    # one CandidateConfig per config hash, one ParallelConfig per value
    assert all(len(ids) == 1 for ids in configs.values())
    assert all(len(ids) == 1 for ids in pcfgs.values())
    assert len(configs) < len(cells) and len(pcfgs) < len(configs)
    # cells are loaded without their wire fragments (made on first encode)
    assert all(ev.fragment is None for ev in cells)
