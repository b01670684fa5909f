"""Fixtures for the payload tier's replay."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def shifting_pool():
    """An 8-task pool: 28 pairs, enough for two disjoint hot sets of 8."""
    from repro.serving.demo import build_demo_pool

    pool, _data = build_demo_pool(num_tasks=8, train_per_class=20, epochs=4, seed=13)
    return pool
