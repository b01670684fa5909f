"""AIaaS scenario: a mobile user roaming a theme park (paper §1).

The paper motivates PoE with a user who "enters a restaurant in an animal
theme park and returns to see animals having lunch": each location needs a
different lightweight classifier, *right now*, on a resource-limited
device.  This example simulates that day trip:

* the server preprocesses one oracle into a pool (done once, offline),
* the client requests a task-specific model at each location,
* every request is served in milliseconds with a model orders of
  magnitude smaller than the oracle.

Run:  python examples/aiaas_theme_park.py
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

ITINERARY = [
    ("zoo entrance", ["savanna_animals"]),
    ("aquarium", ["sea_life"]),
    ("restaurant", ["dishes", "drinks"]),
    ("back to the zoo", ["savanna_animals", "forest_animals"]),
    ("souvenir shop", ["souvenirs", "dishes"]),
]


def main() -> None:
    hierarchy = ClassHierarchy(
        {
            "savanna_animals": ["lion", "zebra", "giraffe"],
            "forest_animals": ["deer", "boar", "squirrel"],
            "sea_life": ["shark", "ray", "turtle"],
            "dishes": ["pasta", "burger", "salad"],
            "drinks": ["coffee", "juice", "soda"],
            "souvenirs": ["plush", "mug", "keyring"],
        }
    )
    generator = SyntheticImageGenerator(
        hierarchy, SyntheticConfig(image_size=8, noise_std=0.8), seed=7
    )
    data = HierarchicalImageDataset(hierarchy, generator, 80, 30, seed=8)

    # --- server side: one-time preprocessing --------------------------------
    oracle = WideResNet(10, 2, 2, hierarchy.num_classes, rng=np.random.default_rng(1))
    print(f"[server] training the park's oracle ({count_params(oracle):,} params) ...")
    train_scratch(
        oracle, data.train.images, data.train.labels,
        TrainConfig(epochs=8, batch_size=128, lr=0.05, seed=0),
    )
    print(f"[server] oracle accuracy: {accuracy(oracle, data.test):.3f}")
    pool = PoolOfExperts(
        oracle,
        hierarchy,
        PoEConfig(
            library_train=TrainConfig(epochs=8, batch_size=128, lr=0.05, seed=0),
            expert_train=TrainConfig(epochs=8, batch_size=128, lr=0.05, seed=0),
        ),
    )
    t0 = time.perf_counter()
    pool.preprocess(data.train)
    print(f"[server] pool preprocessed in {time.perf_counter() - t0:.1f}s "
          f"({len(pool.expert_names())} experts)\n")

    # --- client side: realtime model queries along the itinerary ------------
    oracle_params = count_params(oracle)
    # every stop asks for a new composite, so every query is a cold build
    cold_ms = []
    with ServingGateway(pool) as gateway:
        for place, tasks in ITINERARY:
            start = time.perf_counter()
            model = gateway.get_model(tasks)
            cold_ms.append(1000 * (time.perf_counter() - start))
            acc = specialized_accuracy(model.network, data.test, model.task)
            shrink = oracle_params / model.num_params()
            print(
                f"[client] {place:<18} tasks={'+'.join(tasks):<32} "
                f"model built in {cold_ms[-1]:6.2f} ms | {model.num_params():>7,} params "
                f"({shrink:4.1f}x smaller) | accuracy {acc:.3f}"
            )

    print(
        f"\n[client] served {len(cold_ms)} queries, all cold — mean cold latency "
        f"{np.mean(cold_ms):.2f} ms; no training happened."
    )


if __name__ == "__main__":
    main()
