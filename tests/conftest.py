"""Shared fixtures."""

from __future__ import annotations

import concurrent.futures

import pytest


class InProcessPool:
    """Stands in for ProcessPoolExecutor: maps in-process, records its use."""

    built: list = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.shutdowns = []
        self.built.append(self)

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdowns.append((wait, cancel_futures))


@pytest.fixture()
def fake_pool(monkeypatch):
    """Replace the process pool so that no worker process starts."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(InProcessPool, "built", [])
    return InProcessPool
