"""Per-image verdicts on every paper-table record, on the micro track.

A Table 2/3/5 record keeps its per-image correctness as packed bits over the
task's test images in test-set order, so two methods scored on one task pair
image by image; Figure 5 keeps each OOD image's max-softmax.  The bits must
decode to exactly the recorded accuracy, and a record written in the layout
that had no bits is recomputed, never served.
"""

import base64
import json
import shutil

import numpy as np
import pytest

from repro.eval import (
    SERVICE_METHODS,
    SPECIALIZATION_METHODS,
    ArtifactStore,
    confidence_figure,
    run_service_method,
    run_specialization,
    select_combos,
    unpack_correct,
)


def _n_test_images(store, track, task) -> int:
    return int(np.isin(store.dataset(track).test.labels, task.classes).sum())


def _assert_bits_give_accuracy(record, n_images):
    assert record["n_images"] == n_images
    bits = unpack_correct(record["correct"], record["n_images"])
    assert bits.dtype == bool and bits.shape == (n_images,)
    assert float(bits.mean()) == record["accuracy"]


@pytest.mark.parametrize("method", SPECIALIZATION_METHODS)
def test_specialization_record_bits(micro_track, store, method):
    hierarchy = store.dataset(micro_track).hierarchy
    name = micro_track.selected_tasks(hierarchy)[0]
    record = run_specialization(micro_track, store, method, name)
    _assert_bits_give_accuracy(
        record, _n_test_images(store, micro_track, hierarchy.task(name))
    )


@pytest.mark.parametrize("method", SERVICE_METHODS + ("poe-soft", "poe-scale"))
def test_service_record_bits(micro_track, store, method):
    hierarchy = store.dataset(micro_track).hierarchy
    combo = select_combos(micro_track.selected_tasks(hierarchy), 2, 1, seed=0)[0]
    record = run_service_method(micro_track, store, method, combo)
    _assert_bits_give_accuracy(
        record, _n_test_images(store, micro_track, hierarchy.composite(combo))
    )


def test_figure5_confidences_reproduce_its_statistics(micro_track, store):
    figure = confidence_figure(micro_track, store)
    hierarchy = store.dataset(micro_track).hierarchy
    n_test = len(store.dataset(micro_track).test)
    n_ood = n_test - _n_test_images(store, micro_track, hierarchy.task(figure["task"]))
    for method in ("scratch", "transfer", "ckd"):
        result = figure[method]
        confidences = np.frombuffer(base64.b64decode(result["confidences"]), dtype="<f4")
        assert confidences.shape == (n_ood,)
        assert float(confidences.mean()) == result["mean"]
        assert float((confidences > 0.9).mean()) == result["overconfident_rate"]


def test_record_without_bits_is_recomputed(micro_track, store, tmp_path):
    store.oracle(micro_track)  # on disk: a second store loads it, never retrains
    root = tmp_path / "artifacts"
    shutil.copytree(f"{store.root}/models", root / "models")
    name = micro_track.selected_tasks(store.dataset(micro_track).hierarchy)[0]
    # where a record sat before records carried per-image bits
    stale = root / "results" / micro_track.cache_key() / "specialization" / f"oracle_{name}.json"
    stale.parent.mkdir(parents=True)
    stale.write_text(json.dumps({"method": "oracle", "task": name, "accuracy": -1.0}))

    record = run_specialization(micro_track, ArtifactStore(str(root)), "oracle", name)

    assert record["accuracy"] != -1.0
    hierarchy = store.dataset(micro_track).hierarchy
    _assert_bits_give_accuracy(
        record, _n_test_images(store, micro_track, hierarchy.task(name))
    )
    assert record["correct"] == run_specialization(micro_track, store, "oracle", name)["correct"]
