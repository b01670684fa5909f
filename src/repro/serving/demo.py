"""A self-contained micro pool for serving demos and benchmarks.

The request-path harness (``benchmarks/harness/``), the CLI's demo
commands (``reshard``, ``scrape``, ``top``, ``autotune-bench``) and
``examples/concurrent_clients.py`` all need a *ready* pool without
depending on the artifact store having been built: the serving layer's
costs (serialization, locking, cache management) are independent of model
quality, so a minutes-long preprocessing run would add nothing but wall
clock.  This builds the same kind of tiny synthetic pool the test suite
uses — real library + real CKD experts, just at micro scale.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core import PoEConfig, PoolOfExperts
from ..data import ClassHierarchy
from ..data.synthetic import (
    HierarchicalImageDataset,
    SyntheticConfig,
    SyntheticImageGenerator,
)
from ..distill import TrainConfig, train_scratch
from ..models import WideResNet

__all__ = ["build_demo_pool"]


def build_demo_pool(
    num_tasks: int = 5,
    classes_per_task: int = 2,
    image_size: int = 6,
    train_per_class: int = 30,
    epochs: int = 6,
    seed: int = 7,
    *,
    hierarchy: Optional[ClassHierarchy] = None,
    test_per_class: Optional[int] = None,
    oracle_epochs: Optional[int] = None,
    train_seed: Optional[int] = None,
    noise_std: float = 0.45,
) -> Tuple[PoolOfExperts, HierarchicalImageDataset]:
    """Train a micro oracle and preprocess a full pool over it.

    Returns ``(pool, dataset)``; the pool has one expert per primitive task
    and is immediately consolidatable/serveable.  Takes seconds, not
    minutes — sized for load tests, not accuracy claims.  The test suite's
    shared fixtures build through here too (with a custom ``hierarchy``),
    so there is exactly one micro-pool recipe in the repo.
    """
    if hierarchy is None:
        hierarchy = ClassHierarchy.uniform(num_tasks, classes_per_task, prefix="task")
    if test_per_class is None:
        test_per_class = max(8, train_per_class // 3)
    if oracle_epochs is None:
        oracle_epochs = epochs
    if train_seed is None:
        train_seed = seed

    def train_config(num_epochs: int) -> TrainConfig:
        return TrainConfig(epochs=num_epochs, batch_size=32, lr=0.05, seed=train_seed)

    generator = SyntheticImageGenerator(
        hierarchy, SyntheticConfig(image_size=image_size, noise_std=noise_std), seed=seed
    )
    data = HierarchicalImageDataset(
        hierarchy, generator, train_per_class, test_per_class, seed=seed + 1
    )
    oracle = WideResNet(
        10, 2, 2, hierarchy.num_classes, rng=np.random.default_rng(seed)
    )
    train_scratch(
        oracle, data.train.images, data.train.labels, train_config(oracle_epochs)
    )
    pool = PoolOfExperts(
        oracle,
        hierarchy,
        PoEConfig(
            library_depth=10,
            library_k=1.0,
            expert_ks=0.25,
            library_train=train_config(epochs),
            expert_train=train_config(epochs),
        ),
    )
    pool.preprocess(data.train)
    return pool, data
