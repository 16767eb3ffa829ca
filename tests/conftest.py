"""Fixtures shared by the test modules."""

import concurrent.futures

import pytest


@pytest.fixture
def recording_pool(monkeypatch):
    """Stand in for ProcessPoolExecutor, running in process; returns the sizes of the pools started."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes
