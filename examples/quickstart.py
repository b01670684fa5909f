"""Quickstart: build a Pool of Experts and query task-specific models.

Walks the full PoE lifecycle on a small synthetic dataset:

1. train a generic *oracle* classifier over a class hierarchy,
2. preprocess it into a pool (library via KD + one CKD expert per
   primitive task),
3. query composite-task models in realtime — no training in the loop.

Run:  python examples/quickstart.py        (~1 minute on a laptop CPU)
"""

import time

import numpy as np

from repro.core import PoEConfig, PoolOfExperts
from repro.data import ClassHierarchy
from repro.data.synthetic import (
    HierarchicalImageDataset,
    SyntheticConfig,
    SyntheticImageGenerator,
)
from repro.distill import TrainConfig, train_scratch
from repro.eval.metrics import accuracy, specialized_accuracy
from repro.models import WideResNet, count_params
from repro.serving import ServingGateway


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A dataset with an explicit class hierarchy: superclasses are the
    #    "primitive tasks" a user can query (paper §3).
    # ------------------------------------------------------------------
    hierarchy = ClassHierarchy(
        {
            "pets": ["cat", "dog", "hamster"],
            "wild": ["fox", "wolf", "bear"],
            "birds": ["owl", "eagle", "crow"],
            "fish": ["trout", "eel", "cod"],
        }
    )
    generator = SyntheticImageGenerator(
        hierarchy, SyntheticConfig(image_size=8, noise_std=0.8), seed=0
    )
    data = HierarchicalImageDataset(hierarchy, generator, train_per_class=80, test_per_class=30, seed=1)
    print(f"dataset: {hierarchy.num_classes} classes in {hierarchy.num_primitive_tasks} primitive tasks")

    # ------------------------------------------------------------------
    # 2. The oracle: a generic model covering every class.
    # ------------------------------------------------------------------
    oracle = WideResNet(10, 2, 2, hierarchy.num_classes, rng=np.random.default_rng(0))
    print(f"training oracle ({count_params(oracle):,} params) ...")
    train_scratch(
        oracle, data.train.images, data.train.labels,
        TrainConfig(epochs=8, batch_size=128, lr=0.05, seed=0),
    )
    print(f"oracle test accuracy: {accuracy(oracle, data.test):.3f}")

    # ------------------------------------------------------------------
    # 3. Preprocessing phase: extract the library and the experts.
    # ------------------------------------------------------------------
    pool = PoolOfExperts(
        oracle,
        hierarchy,
        PoEConfig(
            library_depth=10,
            library_k=1.0,
            expert_ks=0.25,
            library_train=TrainConfig(epochs=8, batch_size=128, lr=0.05, seed=0),
            expert_train=TrainConfig(epochs=8, batch_size=128, lr=0.05, seed=0),
        ),
    )
    print("preprocessing: extracting library + experts ...")
    pool.preprocess(data.train)
    print(f"pool ready with experts: {', '.join(pool.expert_names())}")

    # ------------------------------------------------------------------
    # 4. Service phase: realtime model queries.
    # ------------------------------------------------------------------
    with ServingGateway(pool) as gateway:
        for query in (["pets"], ["pets", "birds"], ["wild", "fish", "birds"]):
            start = time.perf_counter()
            model = gateway.get_model(query)
            built_ms = 1000 * (time.perf_counter() - start)
            acc = specialized_accuracy(model.network, data.test, model.task)
            print(
                f"query {'+'.join(query):<18} -> {model.network.arch_name():<28} "
                f"{count_params(model.network):>7,} params, built in {built_ms:6.2f} ms, "
                f"accuracy {acc:.3f}"
            )

        # A model predicts global class names directly (a repeat query is
        # served from the gateway's model cache):
        sample = data.test.images[:5]
        model = gateway.get_model(["pets", "birds"])
        print("sample predictions:", model.predict_names(sample))


if __name__ == "__main__":
    main()
