"""A cell priced by the array program is a view of its batch, read as its
materialised twin.

:meth:`EvaluationBatch.views` publishes each priced cell as an
:class:`EvaluationView` that reads its numbers from the batch and builds
its breakdown only when that is read; the planning server writes a view's
JSON text from the same numbers (``repro.serve.server._view``). Both must
be indistinguishable from :meth:`EvaluationBatch.evaluation`, the
materialised cell, over random models (CNNs included), GPU counts,
framework subsets, sparsities (0 and 1 included), micro-batch sets
(``True`` and ``1.0`` included), scenario columns and budgets.
"""

from __future__ import annotations

import dataclasses
import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Job, Machine, Session
from repro.autotune import FRAMEWORKS, SearchSpace, make_estimator
from repro.autotune.batch import EvaluationView
from repro.autotune.estimator import Evaluation
from repro.models import get_spec
from repro.models.registry import GPT_CONFIGS, TABLE_I
from repro.parallel.scenarios import SCENARIOS
from repro.serve.server import _fragment, _view
from repro.serve.store import PersistentEvaluationStore

MODELS = sorted(set(TABLE_I) | set(GPT_CONFIGS))
#: the presets the array program prices: neutral and collective knobs only
COLLECTIVE = sorted(name for name, sc in SCENARIOS.items() if not sc.degrades_pipeline)
FIELDS = tuple(f.name for f in dataclasses.fields(Evaluation))
_BREAKDOWN = Evaluation.__dict__["breakdown"]


def built(view: EvaluationView) -> bool:
    """Whether the view holds a built breakdown."""
    try:
        _BREAKDOWN.__get__(view)
    except AttributeError:
        return False
    return True


@st.composite
def batches(draw):
    spec = get_spec(draw(st.sampled_from(MODELS)))
    frameworks = draw(st.sets(st.sampled_from(FRAMEWORKS), min_size=1))
    space = SearchSpace(
        spec,
        2 ** draw(st.integers(0, 9)) * draw(st.sampled_from((1, 1, 3, 5))),
        frameworks=tuple(f for f in FRAMEWORKS if f in frameworks),
        sparsities=tuple(draw(st.lists(
            st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0), min_size=1, max_size=2,
        ))),
        microbatch_sizes=tuple(draw(st.lists(
            st.sampled_from((True, 1.0, 1, 2, 4)), min_size=1, max_size=3, unique=True,
        ))),
        explore_no_checkpoint=draw(st.booleans()),
        cal=Machine.summit(budget_gb=draw(st.sampled_from((8, 16, 32)))).cal,
    )
    configs = list(space.candidates())
    columns = draw(st.lists(st.sampled_from([None, *COLLECTIVE]), min_size=1, max_size=3))
    estimator = make_estimator("analytic-batch", spec, space.cal)
    return estimator.evaluate_batch(configs, scenarios=columns)


def assert_view_is_its_twin(view: EvaluationView, twin: Evaluation) -> None:
    assert view.__class__ is EvaluationView and twin.__class__ is Evaluation
    for name in FIELDS:
        if name != "breakdown":
            assert getattr(view, name) == getattr(twin, name), name
    # the bits ranking reads, not merely equal values
    assert repr(view.total_time) == repr(twin.total_time) == repr(twin.breakdown.total)
    assert repr(view.throughput) == repr(twin.throughput)
    assert view.as_row() == twin.as_row()
    assert view.memory_bytes.__class__ is int and view.feasible.__class__ is bool
    text = json.dumps(twin.to_dict())
    assert _view(view) == json.dumps(view.to_dict()) == text
    assert repr(view) == repr(twin)
    assert not built(view)  # nothing above builds a breakdown it keeps
    assert view == twin and twin == view and not view != twin
    assert view.breakdown == twin.breakdown and built(view)
    assert view.breakdown is view.breakdown
    assert json.dumps(view.to_dict()) == text


@settings(max_examples=60, deadline=None)
@given(batches())
def test_every_view_is_its_materialised_twin(batch):
    cells = [(i, j) for i in range(batch.n_configs) for j in range(batch.n_scenarios)]
    for (i, j), view in zip(cells, batch.views(cells)):
        assert_view_is_its_twin(view, batch.evaluation(i, j))
    if batch.n_configs > 1:
        a, b = batch.views([(0, 0), (1, 0)])
        assert (a == b) is (a.twin() == b.twin()) and (a == b) is (batch.evaluation(0) == b)


@settings(max_examples=40, deadline=None)
@given(batches(), st.data(), st.sampled_from((float("nan"), float("inf"), float("-inf"))))
def test_a_non_finite_number_falls_back_to_json_dumps(batch, data, value):
    if not batch.n_configs:
        return
    i = data.draw(st.integers(0, batch.n_configs - 1))
    j = data.draw(st.integers(0, batch.n_scenarios - 1))
    names = ["compute", "p2p", "bubble", "collective", "other"]
    if batch.family == "gpt":
        names += ["t_f", "t_b", "overhead"]
    name = data.draw(st.sampled_from(names))
    array = getattr(batch, name).copy()
    array[(i, j) if array.ndim == 2 else i] = value
    planted = dataclasses.replace(batch, **{name: array})
    (view,) = planted.views([(i, j)])
    text = _view(view)
    assert text == json.dumps(view.to_dict()) == json.dumps(planted.evaluation(i, j).to_dict())
    assert "NaN" in text or "Infinity" in text


def test_batch_arrays_are_read_only():
    spec = get_spec("gpt3-xl")
    configs = list(SearchSpace(spec, 16).candidates())
    batch = make_estimator("analytic", spec).evaluate_batch(configs)
    for name in ("compute", "total", "memory_bytes", "feasible", "t_f", "microbatches"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(batch, name)[0] = 0
    (view,) = batch.views([(0, 0)])
    with pytest.raises(dataclasses.FrozenInstanceError):
        view.row = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        view.config = configs[1]


def test_racing_first_reads_of_a_breakdown_agree():
    spec = get_spec("gpt3-2.7b")
    configs = list(SearchSpace(spec, 128).candidates())
    batch = make_estimator("analytic", spec).evaluate_batch(configs)
    views = batch.views([(i, 0) for i in range(batch.n_configs)])
    barrier = threading.Barrier(8)
    seen = [[] for _ in range(8)]

    def read(k):
        barrier.wait()
        seen[k].extend(view.breakdown for view in views)

    threads = [threading.Thread(target=read, args=(k,)) for k in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for i, view in enumerate(views):
        twin = batch.evaluation(i)
        assert all(reads[i] == twin.breakdown for reads in seen)
        assert view == twin


def test_fragment_is_kept_from_the_second_encode():
    spec = get_spec("vgg19")
    configs = list(SearchSpace(spec, 64).candidates())
    batch = make_estimator("analytic", spec).evaluate_batch(configs)
    (view,) = batch.views([(0, 0)])
    text = json.dumps(batch.evaluation(0).to_dict())
    assert view.fragment is None
    assert _fragment(view) == text and view.fragment == ""
    assert _fragment(view) == text and view.fragment == text
    assert _fragment(view) is view.fragment and not built(view)


def test_questions_and_snapshots_build_no_breakdown(tmp_path):
    store = PersistentEvaluationStore(tmp_path / "cells.jsonl")
    session = Session(Machine(), cache=store)
    job = Job(model="gpt3-xl", n_gpus=32)
    plan = session.plan(job)
    robust = session.robust_plan(job.with_(fidelity="analytic-batch"), "collective-degraded")
    views = [ev for ev in plan.evaluations if isinstance(ev, EvaluationView)]
    cells = [ev for res in robust.per_scenario.values() for ev in res.evaluations]
    assert len(views) == len(plan.evaluations) and all(isinstance(ev, EvaluationView) for ev in cells)
    assert plan.best is plan.feasible[0] and plan.pareto_frontier()
    assert robust.best.expected_time > 0
    assert store.save() == len(views) + len(cells)
    assert not any(built(ev) for ev in views + cells)
    # the snapshot loads back into materialised cells equal to the views
    loaded = PersistentEvaluationStore(tmp_path / "cells.jsonl")
    assert loaded.load() == len(store)
    for key in store.keys():
        view, twin = store.get(key), loaded.get(key)
        assert twin.__class__ is Evaluation and view == twin and twin == view
    # a plan's text is the one its materialised cells give
    assert json.dumps(plan.to_dict()) == json.dumps(dataclasses.replace(
        plan, evaluations=[ev.twin() for ev in plan.evaluations]).to_dict())
    assert not any(built(ev) for ev in views)
    assert np.isfinite(robust.times).all()
