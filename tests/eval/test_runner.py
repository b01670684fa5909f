"""`repro build` end to end on a micro track: every registered artifact is
built into the summary, every claim can be judged from it, and every
record's per-image bits decode to its accuracy.

The micro track trains one epoch on a handful of images, so its numbers
say nothing about the paper: no claim's verdict is asserted here.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core import deserialize_task_model
from repro.data import task_subset
from repro.eval import ArtifactStore, cifar_track, unpack_correct
from repro.eval.claims import ARTIFACTS, verdicts
from repro.eval.runner import build_track
from repro.serving import ServingGateway

MICRO = replace(
    cifar_track(fast=True),
    num_superclasses=6,
    classes_per_super=2,
    train_per_class=6,
    test_per_class=3,
    num_selected_tasks=5,
    oracle_epochs=1,
    library_epochs=1,
    expert_epochs=1,
    service_epochs=1,
)


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    store = ArtifactStore(str(tmp_path_factory.mktemp("artifacts")))
    build_track(MICRO, store, verbose=False)
    return store, json.loads(Path(store.summary_path(MICRO)).read_text())


def test_every_registered_artifact_is_in_the_summary(built):
    _, summary = built
    assert summary["track"] == MICRO.name
    assert set(ARTIFACTS) <= set(summary)


def test_the_library_level_rows_come_from_two_pools(built):
    """ℓ=2's library keeps one convolution group fewer than the track's
    own ℓ=3 pool, whatever the pools learned."""
    _, summary = built
    rows = {row["level"]: row for row in summary["ext_library_level"]["levels"]}
    assert rows[2]["library_params"] < rows[3]["library_params"]
    assert rows[2]["model_params"] > rows[3]["model_params"]


def test_every_claim_reads_values_the_summary_has(built):
    """Judging a claim evaluates its predicate over the artifact's values:
    a name the summary lacks raises instead of reading a verdict."""
    _, summary = built
    judged = [claim for key in ARTIFACTS for claim, _ok, _values in verdicts(key, summary[key])]
    assert len(judged) == sum(len(artifact.claims) for artifact in ARTIFACTS.values())


def _bit_mean(bits: str, n_images: int) -> float:
    return float(unpack_correct(bits, n_images).mean())


def test_every_record_bits_average_to_its_accuracy(built):
    store, summary = built
    records = [json.loads(path.read_text())
               for path in Path(store.summary_path(MICRO)).parent.rglob("v*/*/*.json")]
    scored = [r for r in records if "correct" in r]
    # Table 2 scores 5 methods on 5 tasks; Tables 3 and 5 score combos
    assert len(scored) > 25
    for record in scored:
        assert _bit_mean(record["correct"], record["n_images"]) == record["accuracy"]
    for key in ("table2", "table3", "table5", "table5_l2"):
        for row in summary[key]:
            means = [_bit_mean(b, n) for b, n in zip(row["correct"], row["n_images"])]
            assert float(np.asarray(means).mean()) == row["accuracy_mean"], (key, row["method"])


def test_served_poe_models_reproduce_the_scored_bits(built):
    """Every Table 3 PoE combo, served through a gateway over the track's
    pool and rebuilt from its payload, predicts each test image right or
    wrong exactly as the Table 3 scorer recorded: the paper's PoE numbers
    describe the bytes serving ships."""
    store, summary = built
    data = store.dataset(MICRO)
    rows = [row for row in summary["table3"] if row["method"] == "poe"]
    assert rows
    with ServingGateway(store.pool(MICRO)) as gateway:
        for row in rows:
            for combo, bits, n_images in zip(row["combos"], row["correct"], row["n_images"]):
                model = deserialize_task_model(gateway.serve(combo).payload)
                test = task_subset(data.test, data.hierarchy.composite(combo), remap=False)
                served = model.predict(test.images) == test.labels
                assert np.array_equal(served, unpack_correct(bits, n_images)), combo
