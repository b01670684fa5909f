"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Keep property-based tests fast and deterministic in CI.
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
# The same, drawn from ``--hypothesis-seed`` instead of one fixed draw per
# test (a derandomized test ignores the seed): select it with
# ``HYPOTHESIS_PROFILE=repro-seeded`` to widen what a property test sees.
settings.register_profile(
    "repro-seeded", settings.get_profile("repro"), derandomize=False, database=None
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro"))


@pytest.fixture
def followers_joined(monkeypatch):
    """``followers_joined(n)``: an Event set once ``n`` callers wait on
    another caller's single flight.  A leader gated on it is released
    with every follower already coalesced — no sleep decides the race."""
    import repro.serving.gateway as serving_gateway

    real_wait = serving_gateway._Inflight.wait
    lock, joined, target, event = threading.Lock(), [0], [None], threading.Event()

    def wait(flight):
        with lock:
            joined[0] += 1
            if joined[0] == target[0]:
                event.set()
        return real_wait(flight)

    monkeypatch.setattr(serving_gateway._Inflight, "wait", wait)

    def arm(followers: int) -> threading.Event:
        target[0] = followers
        return event

    return arm


@pytest.fixture(scope="module")
def poisoned_workspace():
    """Fused walkers whose scratch is NaN-filled after every call.

    After each ``FusedTrunk`` / ``FusedHeadBank`` call, the calling
    thread's workspace slabs are overwritten with NaN, the padded-input
    slabs excepted (the walkers rely on their zero border).  An answer
    still viewing a slab then reads NaN, so a test that passes under this
    shows that no result handed out is a live workspace view.  Module
    scope: a hypothesis test may not take a function-scoped fixture.
    """
    from repro.models import fused_head
    from repro.nn import fused

    def poisoning(call):
        def poisoned(self, *args, **kwargs):
            try:
                return call(self, *args, **kwargs)
            finally:
                for key, slab in fused._WORKSPACE._slabs.items():
                    if not (isinstance(key, tuple) and key[0] == "padded"):
                        slab.fill(np.nan)

        return poisoned

    with pytest.MonkeyPatch.context() as patch:
        for walker in (fused.FusedTrunk, fused_head.FusedHeadBank):
            patch.setattr(walker, "__call__", poisoning(walker.__call__))
        yield


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_hierarchy():
    """4 superclasses x 2 classes — the micro hierarchy for fast tests."""
    from repro.data import ClassHierarchy

    return ClassHierarchy.uniform(4, 2, prefix="t")


@pytest.fixture
def tiny_dataset(tiny_hierarchy):
    """A micro synthetic dataset (8 classes, 6x6 images, 20+10 per class)."""
    from repro.data.synthetic import (
        HierarchicalImageDataset,
        SyntheticConfig,
        SyntheticImageGenerator,
    )

    generator = SyntheticImageGenerator(
        tiny_hierarchy, SyntheticConfig(image_size=6, noise_std=0.5), seed=3
    )
    return HierarchicalImageDataset(
        tiny_hierarchy, generator, train_per_class=20, test_per_class=10, seed=4
    )


def in_layout(array: np.ndarray, layout: str) -> np.ndarray:
    """``array`` (logical NCHW) over ``layout`` memory: "nchw" or "nhwc"."""
    if layout == "nchw":
        return np.ascontiguousarray(array)
    return np.ascontiguousarray(array.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def build_micro_pool(hierarchy, seed=3, train_per_class=40, test_per_class=15):
    """Train a micro oracle and preprocess a full pool over ``hierarchy``.

    Delegates to the one micro-pool recipe, :func:`repro.serving.demo
    .build_demo_pool`, with the training budgets the test suite has always
    used (oracle 10 epochs, library/experts 8, train seed 0).
    """
    from repro.serving.demo import build_demo_pool

    pool, data = build_demo_pool(
        hierarchy=hierarchy,
        seed=seed,
        train_per_class=train_per_class,
        test_per_class=test_per_class,
        epochs=8,
        oracle_epochs=10,
        train_seed=0,
    )
    return pool, data, pool.oracle


def assert_fused_ids_match(ids, reference_logits, classes, atol=1e-4):
    """Fused-path ids must equal the loop-path argmax, near-ties excepted.

    The fused bank folds batch norm into affines, which reorders float32
    ops: logits agree to ``allclose``, not bitwise.  An argmax comparison
    must therefore tolerate samples whose top-2 loop logits are within the
    fold round-off — on those, either class is a correct answer.
    """
    ids = np.asarray(ids)
    classes = np.asarray(classes)
    reference_logits = np.asarray(reference_logits)
    ref_ids = classes[reference_logits.argmax(axis=1)]
    mismatch = ids != ref_ids
    if not mismatch.any():
        return
    # the fused-chosen class must itself be within round-off of the top:
    # picking any merely-near-tied third class would still be a real bug
    column = {int(c): i for i, c in enumerate(classes)}
    assert np.isin(ids[mismatch], classes).all()
    mis_logits = reference_logits[mismatch]
    chosen = mis_logits[
        np.arange(mis_logits.shape[0]),
        [column[int(c)] for c in ids[mismatch]],
    ]
    margins = mis_logits.max(axis=1) - chosen
    assert (margins < atol).all(), (
        f"fused ids diverge from loop argmax with margins {margins} (atol={atol})"
    )


@pytest.fixture(scope="session")
def micro_pool():
    """(pool, data, oracle) over a 4x2 anonymous hierarchy."""
    from repro.data import ClassHierarchy

    return build_micro_pool(ClassHierarchy.uniform(4, 2, prefix="c"))


@pytest.fixture(scope="session")
def named_pool():
    """(pool, data, oracle) over a small named hierarchy (service tests)."""
    from repro.data import ClassHierarchy

    hierarchy = ClassHierarchy(
        {"pets": ["cat", "dog"], "birds": ["owl", "crow"], "fish": ["eel", "cod"]}
    )
    return build_micro_pool(hierarchy, seed=21)
