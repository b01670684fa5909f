"""Accuracy metrics, incl. the paper's task-specific accuracy."""

import numpy as np
import pytest

from repro import nn
from repro.data import ArrayDataset, ClassHierarchy
from repro.eval import (
    accuracy,
    accuracy_from_logits,
    specialized_accuracy,
    task_specific_accuracy,
    unpack_correct,
)
from repro.eval.metrics import pack_correct, task_correct
from repro.tensor import Tensor


class LookupModel(nn.Module):
    """Maps each input (identified by its first pixel) to preset logits."""

    def __init__(self, logits):
        super().__init__()
        self._logits = np.asarray(logits, dtype=np.float32)

    def forward(self, x):
        idx = x.numpy()[:, 0, 0, 0].astype(np.int64)
        return Tensor(self._logits[idx])


@pytest.fixture
def hierarchy():
    return ClassHierarchy.uniform(3, 2, prefix="e")


def indexed_dataset(labels):
    """Images whose first pixel encodes the sample index."""
    n = len(labels)
    images = np.zeros((n, 1, 2, 2), dtype=np.float32)
    images[:, 0, 0, 0] = np.arange(n)
    return ArrayDataset(images, np.asarray(labels))


class TestAccuracyFromLogits:
    def test_perfect(self):
        logits = np.eye(4)
        assert accuracy_from_logits(logits, np.arange(4)) == 1.0

    def test_partial(self):
        logits = np.eye(4)
        labels = np.array([0, 1, 0, 0])
        assert accuracy_from_logits(logits, labels) == 0.5


class TestAccuracy:
    def test_model_eval(self, hierarchy):
        data = indexed_dataset([0, 1, 2])
        logits = np.eye(6)[:3] * 10
        assert accuracy(LookupModel(logits), data) == 1.0


class TestTaskSpecificAccuracy:
    def test_restricts_to_task_columns(self, hierarchy):
        """A generic model wrong globally can be right task-locally:
        the paper measures only within the task's columns."""
        task = hierarchy.task("e1")  # global classes (2, 3)
        data = indexed_dataset([2, 3])
        # model puts huge mass on class 5 (outside task), then prefers the
        # correct in-task class: task-specific accuracy must be 1.0.
        logits = np.zeros((2, 6), dtype=np.float32)
        logits[:, 5] = 100.0
        logits[0, 2], logits[0, 3] = 2.0, 1.0
        logits[1, 2], logits[1, 3] = 1.0, 2.0
        model = LookupModel(logits)
        assert task_specific_accuracy(model, data, task) == 1.0

    def test_only_task_samples_scored(self, hierarchy):
        task = hierarchy.task("e0")  # classes (0, 1)
        data = indexed_dataset([0, 1, 4, 5])  # half OOD
        logits = np.zeros((4, 6), dtype=np.float32)
        logits[0, 0] = 1.0
        logits[1, 0] = 1.0  # wrong within task
        model = LookupModel(logits)
        assert task_specific_accuracy(model, data, task) == 0.5

    def test_no_task_samples_raises(self, hierarchy):
        task = hierarchy.task("e0")
        data = indexed_dataset([4, 5])
        with pytest.raises(ValueError):
            task_specific_accuracy(LookupModel(np.zeros((2, 6))), data, task)

    def test_composite_task(self, hierarchy):
        q = hierarchy.composite(["e2", "e0"])  # classes (4,5,0,1)
        data = indexed_dataset([4, 0])
        logits = np.zeros((2, 6), dtype=np.float32)
        logits[0, 4] = 5.0
        logits[1, 0] = 5.0
        assert task_specific_accuracy(LookupModel(logits), data, q) == 1.0


class TestSpecializedAccuracy:
    def test_local_output_space(self, hierarchy):
        task = hierarchy.task("e1")  # global (2, 3) -> local (0, 1)
        data = indexed_dataset([2, 3])
        logits = np.array([[3.0, 0.0], [0.0, 3.0]], dtype=np.float32)
        assert specialized_accuracy(LookupModel(logits), data, task) == 1.0

    def test_wrong_width_rejected(self, hierarchy):
        task = hierarchy.task("e1")
        data = indexed_dataset([2, 3])
        with pytest.raises(ValueError):
            specialized_accuracy(LookupModel(np.zeros((2, 6))), data, task)

    def test_no_samples_raises(self, hierarchy):
        task = hierarchy.task("e1")
        data = indexed_dataset([0, 1])
        with pytest.raises(ValueError):
            specialized_accuracy(LookupModel(np.zeros((2, 2))), data, task)


class TestPerImageVector:
    """Both accuracies are means of one vector over the task's images, in
    dataset order, so two methods' vectors pair image by image."""

    def test_generic_model(self, hierarchy):
        task = hierarchy.task("e1")  # global classes (2, 3)
        data = indexed_dataset([2, 0, 3, 3, 5])  # task images: rows 0, 2, 3
        logits = np.zeros((5, 6), dtype=np.float32)
        logits[:, 5] = 100.0  # outside the task's columns: never read
        logits[0, 2] = 1.0  # right
        logits[2, 2] = 1.0  # wrong: label 3
        logits[3, 3] = 1.0  # right
        model = LookupModel(logits)
        correct = task_correct(model, data, task, generic=True)
        assert correct.tolist() == [True, False, True]
        assert task_specific_accuracy(model, data, task) == correct.mean()

    def test_specialized_model(self, hierarchy):
        task = hierarchy.task("e1")  # global (2, 3) -> local (0, 1)
        data = indexed_dataset([3, 4, 2, 2])  # task images: rows 0, 2, 3
        logits = np.zeros((4, 2), dtype=np.float32)
        logits[0, 1] = 1.0  # right
        logits[2, 1] = 1.0  # wrong: label 2 is local 0
        logits[3, 0] = 1.0  # right
        model = LookupModel(logits)
        correct = task_correct(model, data, task, generic=False)
        assert correct.tolist() == [True, False, True]
        assert specialized_accuracy(model, data, task) == correct.mean()

    def test_bits_round_trip_first_image_high_bit(self):
        correct = np.random.default_rng(0).random(13) < 0.5
        assert np.array_equal(unpack_correct(pack_correct(correct), 13), correct)
        first = np.zeros(9, dtype=bool)
        first[0] = True
        assert pack_correct(first) == "gAA="  # bytes 0x80 0x00
