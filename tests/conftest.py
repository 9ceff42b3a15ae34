"""Shared fixtures and helpers for the test suite."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def repo_root() -> Path:
    return REPO_ROOT


@pytest.fixture
def announce(capsys):
    """Print a line straight to the terminal, bypassing pytest capture.

    Used by the acceptance tests so every criterion leaves one visible
    PASS/FAIL line in the test log.
    """

    def _announce(text: str) -> None:
        with capsys.disabled():
            print(text, flush=True)

    return _announce


def assert_bit_identical(x: np.ndarray, y: np.ndarray) -> None:
    """Assert two float arrays are byte-for-byte the same."""
    assert x.shape == y.shape
    assert x.tobytes() == y.tobytes()


def read_jsonl(path) -> list:
    with Path(path).open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def peak_bytes(fn):
    """Peak traced allocation while ``fn()`` runs."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
