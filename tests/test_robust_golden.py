"""Golden pin for robust and Monte-Carlo wire answers.

``tests/golden/robust_answers.json`` holds the exact text an earlier
planning server answered to the corpus in
``tests/golden/make_robust_answers.py``, written through ``to_dict()``
and one ``json.dumps`` per answer. The current server writes these
answers from the results' arrays; every text must still match byte for
byte (wall-clock seconds masked), non-finite cells, scenario names that
are not strings and a bool micro-batch size included.
"""

import importlib.util
import json
import warnings
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location(
    "make_robust_answers", GOLDEN / "make_robust_answers.py"
)
generator = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generator)

PINNED = json.loads((GOLDEN / "robust_answers.json").read_text())


@pytest.fixture(scope="module")
def texts():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the NaN cell's std
        return generator.answers()


def _first_difference(got: str, expected: str) -> str:
    at = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
              min(len(got), len(expected)))
    lo = max(at - 60, 0)
    return f"differs at offset {at}: {got[lo:at + 60]!r} != {expected[lo:at + 60]!r}"


def test_corpus_size(texts):
    assert len(texts) == len(PINNED) == sum(len(qs) for _, _, qs in generator.GROUPS)


@pytest.mark.parametrize("i", range(len(PINNED)))
def test_answer_is_byte_identical(texts, i):
    if texts[i] != PINNED[i]:
        pytest.fail(f"answer {i}: {_first_difference(texts[i], PINNED[i])}")


def test_corpus_covers_the_edge_cases():
    assert any('"best": null' in t for t in PINNED)
    assert any("NaN" in t and "Infinity" in t for t in PINNED)
    assert any('\\"' in t and "\\\\" in t and "\\u00fc" in t for t in PINNED)
    assert any('"5": ' in t and '"null": ' in t and '"worst_scenario": 5' in t for t in PINNED)
    assert any('"labels": ["neutral", 7]' in t and '"7": ' in t for t in PINNED)
    assert any('"mbs": true' in t for t in PINNED)
    assert not any('"error"' in t[:60] for t in PINNED)
