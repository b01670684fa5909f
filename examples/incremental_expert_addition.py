"""Growing the pool: add a new primitive task without touching the rest.

Because every expert shares the same frozen library and is extracted
independently, supporting a brand-new task later requires only (1) an
oracle that knows the new classes and (2) one expert extraction — no other
expert changes, and previously served models stay valid.  This mirrors the
paper's storage argument (Table 4): the pool grows linearly in tasks while
the set of *queryable* composite models grows exponentially.

Run:  python examples/incremental_expert_addition.py
"""

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
from repro.serving import ServingGateway


def main() -> None:
    hierarchy = ClassHierarchy(
        {
            "fruit": ["apple", "pear", "plum"],
            "tools": ["hammer", "saw", "drill"],
            "instruments": ["violin", "flute", "drum"],
            "furniture": ["chair", "table", "shelf"],  # added later
        }
    )
    generator = SyntheticImageGenerator(
        hierarchy, SyntheticConfig(image_size=8, noise_std=0.8), seed=5
    )
    data = HierarchicalImageDataset(hierarchy, generator, 80, 30, seed=6)

    from repro.models import WideResNet

    # The oracle is trained over ALL classes, including day-2 tasks — it is
    # the "massive generic network" whose knowledge the pool queries.
    oracle_model = WideResNet(10, 2, 2, hierarchy.num_classes, rng=np.random.default_rng(3))
    print("training oracle over all classes ...")
    train_scratch(
        oracle_model, data.train.images, data.train.labels,
        TrainConfig(epochs=8, batch_size=128, lr=0.05, seed=0),
    )
    print(f"oracle accuracy: {accuracy(oracle_model, data.test):.3f}")

    pool = PoolOfExperts(
        oracle_model,
        hierarchy,
        PoEConfig(
            library_train=TrainConfig(epochs=8, batch_size=128, lr=0.05, seed=0),
            expert_train=TrainConfig(epochs=8, batch_size=128, lr=0.05, seed=0),
        ),
    )

    # Day 1: the service launches with three tasks.
    pool.preprocess(data.train, tasks=["fruit", "tools", "instruments"])
    with ServingGateway(pool) as gateway:
        print(f"\nday 1 pool: {gateway.available_tasks()}")
        day1_model = gateway.get_model(["fruit", "tools"])
        day1_logits = day1_model.logits(data.test.images[:16]).copy()

        # Day 2: product asks for furniture recognition.  One extraction call:
        print("\nday 2: extracting the 'furniture' expert (library untouched) ...")
        snapshot = {k: v.copy() for k, v in pool.experts["fruit"].state_dict().items()}
        pool.extract_expert("furniture", data.train.images)
        print(f"day 2 pool: {gateway.available_tasks()}")

        # Existing experts and already-served models are bit-identical:
        after = pool.experts["fruit"].state_dict()
        untouched = all(np.array_equal(snapshot[k], after[k]) for k in snapshot)
        print(f"existing experts untouched: {untouched}")
        same = np.allclose(day1_logits, day1_model.logits(data.test.images[:16]), atol=1e-6)
        print(f"previously served model unchanged: {same}")

        # And the new task composes with the old ones immediately:
        model = gateway.get_model(["furniture", "fruit"])
        acc = specialized_accuracy(model.network, data.test, model.task)
        print(f"new composite furniture+fruit: accuracy {acc:.3f}, "
              f"{model.num_params():,} params")


if __name__ == "__main__":
    main()
