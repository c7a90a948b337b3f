"""``fidelity="analytic"`` is priced by the batch array program, bit for bit.

The registry's ``analytic`` estimator prices a plan's cells through
:meth:`VectorizedAnalyticEstimator.evaluate_batch`; the scalar
:meth:`AnalyticEstimator.evaluate` is the reference it must reproduce.
Answers and cache keys stay byte-identical only if every cell is
*exactly* the reference's, so this compares each cell's JSON text (a
float's ``repr`` is its exact bits), memory and feasibility over random
models (CNNs included), GPU counts, framework subsets, sparsities (0
and 1 included), micro-batch sets, checkpoint exploration and budgets.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Machine
from repro.autotune import FRAMEWORKS, AnalyticEstimator, SearchSpace, make_estimator
from repro.models import get_spec
from repro.models.registry import GPT_CONFIGS, TABLE_I

MODELS = sorted(set(TABLE_I) | set(GPT_CONFIGS))
#: odd factors of a drawn GPU count: every batch size is a power of two,
#: so an odd factor lands in the pipeline depth, where it rounds
#: differently from Table I's power-of-two depths
ODD = (1, 1, 3, 5, 7, 9, 15)


@st.composite
def spaces(draw):
    spec = get_spec(draw(st.sampled_from(MODELS)))
    frameworks = draw(st.sets(st.sampled_from(FRAMEWORKS), min_size=1))
    return SearchSpace(
        spec,
        2 ** draw(st.integers(0, 11)) * draw(st.sampled_from(ODD)),
        frameworks=tuple(f for f in FRAMEWORKS if f in frameworks),
        sparsities=tuple(draw(st.lists(
            st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0), min_size=1, max_size=3,
        ))),
        microbatch_sizes=tuple(sorted(draw(st.sets(st.integers(1, 8), min_size=1, max_size=3)))),
        explore_no_checkpoint=draw(st.booleans()),
        cal=Machine.summit(budget_gb=draw(st.sampled_from((8, 16, 32)))).cal,
    )


def assert_cells_are_the_reference(space: SearchSpace) -> int:
    configs = list(space.candidates())
    estimator = make_estimator("analytic", space.spec, space.cal)
    assert estimator.supports_batch and estimator.fidelity == "analytic"
    batch = estimator.evaluate_batch(configs)
    reference = AnalyticEstimator(space.spec, space.cal)
    for i, config in enumerate(configs):
        cell, ref = batch.evaluation(i), reference.evaluate(config)
        assert json.dumps(cell.to_dict()) == json.dumps(ref.to_dict()), config
        assert cell.memory_bytes == ref.memory_bytes
        assert cell.feasible is ref.feasible
    return len(configs)


@settings(max_examples=100, deadline=None)
@given(spaces())
def test_every_analytic_cell_is_the_scalar_reference(space):
    assert_cells_are_the_reference(space)


@pytest.mark.parametrize("model", MODELS)
def test_every_power_of_two_grid_is_the_scalar_reference(model):
    """Each model on every power-of-two GPU count, at each budget: the
    grid Table I draws from (a CNN's cells differ only by its per-GPU
    batch, so they are swept, not sampled)."""
    spec = get_spec(model)
    cells = sum(
        assert_cells_are_the_reference(SearchSpace(
            spec, 2 ** k, sparsities=(0.0, 0.5, 1.0),
            cal=Machine.summit(budget_gb=budget).cal,
        ))
        for k in range(12)
        for budget in (8, 16, 32)
    )
    assert cells > 0
