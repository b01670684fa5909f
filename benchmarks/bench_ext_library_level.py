"""Extension bench: the library depth ℓ (size/accuracy tradeoff, §4.1).

The paper introduces ℓ — how many convolution groups the shared library
keeps — as "a hyperparameter that controls the tradeoff between the size
of a task-specific model and its accuracy" but evaluates only ℓ=3
(conv1-conv3).  This ablation builds a second pool at ℓ=2 (conv1-conv2
shared; experts own conv3+conv4) on the fast track and quantifies the
tradeoff (artifact ``ext_library_level`` in ``repro.eval.claims``):
bigger per-expert components (more params per branch), more capacity
per expert.

Runs on the fast track so the extra pool costs seconds, not minutes.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.eval import ArtifactStore, cifar_track, claims
from repro.eval.metrics import specialized_accuracy
from repro.models import count_params


@pytest.fixture(scope="module")
def fast_store(store):
    return ArtifactStore(store.root)


def build_level_pool(track, store_, level):
    track_l = replace(track, library_level=level, name=f"{track.name}-ll{level}")
    pool = store_.pool(track_l)
    return track_l, pool


def test_library_level_tradeoff(benchmark, emit, fast_store):
    base = cifar_track(fast=True)
    levels = []
    for level in (3, 2):
        track_l, pool = build_level_pool(base, fast_store, level)
        data = fast_store.dataset(track_l)
        task_accs = []
        for name in track_l.selected_tasks(data.hierarchy):
            model, composite = pool.consolidate([name])
            task_accs.append(specialized_accuracy(model, data.test, composite))
        model, _ = pool.consolidate(list(track_l.selected_tasks(data.hierarchy)[:3]))
        levels.append({
            "level": level,
            "accuracy": float(np.mean(task_accs)),
            "library_params": count_params(pool.library),
            "model_params": count_params(model),
        })
    result = {"levels": levels}
    emit("ext_library_level", claims.render("ext_library_level", result))
    claims.check("ext_library_level", result)

    track_l3, pool3 = build_level_pool(base, fast_store, 3)
    tasks = list(track_l3.selected_tasks(fast_store.dataset(track_l3).hierarchy)[:3])
    benchmark(lambda: pool3.consolidate(tasks))
