"""Fixtures for the self-tuning control-plane tests."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def control_pool(micro_pool):
    """The shared micro pool (4 primitive tasks → 6 distinct pairs)."""
    pool, _data, _oracle = micro_pool
    return pool


@pytest.fixture(scope="session")
def shifting_pool():
    """An 8-task pool: 28 pairs, enough for two disjoint hot sets of 8."""
    from repro.serving.demo import build_demo_pool

    pool, _data = build_demo_pool(num_tasks=8, train_per_class=20, epochs=4, seed=13)
    return pool
