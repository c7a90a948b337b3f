"""Shared helpers for the benchmark harness.

Every bench regenerates one of the paper's tables or figures, printing the
same rows/series the paper reports and writing them to
``benchmarks/results/<name>.txt`` so output survives pytest's capture.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.parallel.pipeline import SCHEDULE_CACHE, simulate_pipeline

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def report():
    """Callable writing a named report to disk and stdout."""

    def _write(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n===== {name} =====\n{text}\n(saved to {path})")

    return _write


@pytest.fixture
def cold_simulate_pipeline():
    """``simulate_pipeline`` with the schedule memo cleared before each
    call, so an engine-timing bench times the kernel, never a memo hit."""

    def _run(*args, **kwargs):
        SCHEDULE_CACHE.clear()
        return simulate_pipeline(*args, **kwargs)

    return _run
