"""The release point: an expert extraction gives its freed heap back to the OS."""

import numpy as np

from repro.core import PoEConfig, PoolOfExperts, heap
from repro.core.pool import LIBRARY_TASK
from repro.distill import TrainConfig


def _fresh(micro_pool):
    pool, data, oracle = micro_pool
    config = PoEConfig(
        library_depth=10,
        library_k=1.0,
        expert_ks=0.25,
        library_train=TrainConfig(epochs=1, batch_size=64, lr=0.05, seed=0),
        expert_train=TrainConfig(epochs=1, batch_size=64, lr=0.05, seed=0),
    )
    return PoolOfExperts(oracle, pool.hierarchy, config), data.train


def test_each_extraction_trims_once_after_installing(micro_pool, monkeypatch):
    fresh, train = _fresh(micro_pool)
    events = []
    fresh.add_listener(lambda name, _version: events.append(("installed", name)))
    monkeypatch.setattr(heap, "_MALLOC_TRIM", lambda pad: events.append(("trim", pad)))

    fresh.extract_library(train.images)
    assert events == [("installed", LIBRARY_TASK), ("trim", 0)]

    events.clear()
    fresh.extract_experts(["c0", "c3"], train.images)
    assert events == [("installed", "c0"), ("installed", "c3"), ("trim", 0)]


def _state(pool):
    modules = {LIBRARY_TASK: pool.library, **pool.experts}
    return {
        (name, key): value
        for name, module in modules.items()
        for key, value in module.state_dict().items()
    }


def test_a_libc_without_malloc_trim_builds_the_same_pool(micro_pool, monkeypatch):
    trimmed, train = _fresh(micro_pool)
    trimmed.preprocess(train, tasks=["c0", "c3"])

    monkeypatch.setattr(heap.ctypes, "CDLL", lambda _name: object())
    monkeypatch.setattr(heap, "_MALLOC_TRIM", heap._find_malloc_trim())
    assert heap._MALLOC_TRIM is None
    untrimmed, _ = _fresh(micro_pool)
    untrimmed.preprocess(train, tasks=["c0", "c3"])

    expected, built = _state(trimmed), _state(untrimmed)
    assert expected.keys() == built.keys()
    for key, value in expected.items():
        assert np.array_equal(value, built[key]), key
