"""KD / CKD / Transfer / Scratch distillation pipelines on a micro problem."""

import numpy as np
import pytest

from repro import nn
from repro.distill import (
    CKDSettings,
    TrainConfig,
    batched_forward,
    distill_ckd,
    distill_kd,
    train_scratch,
    train_transfer,
)
from repro.distill.caches import LogitCache
from repro.tensor import Tensor


@pytest.fixture
def toy(rng):
    """A 6-class problem with 2-class 'primitive tasks' and a perfect teacher.

    Classes are Gaussian blobs; the teacher is an analytically constructed
    linear classifier (centroid matching) that is ~perfect on the data.
    """
    dim, classes, per = 8, 6, 30
    centers = rng.standard_normal((classes, dim)) * 3
    labels = np.repeat(np.arange(classes), per)
    x = (centers[labels] + 0.4 * rng.standard_normal((len(labels), dim))).astype(np.float32)

    teacher = nn.Linear(dim, classes, rng=np.random.default_rng(0))
    teacher.weight.data = centers.astype(np.float32)
    teacher.bias.data = (-0.5 * (centers**2).sum(axis=1)).astype(np.float32)
    teacher.eval()
    return x, labels, teacher, centers


def acc(model, x, labels):
    return float((batched_forward(model, x).argmax(axis=1) == labels).mean())


class TestLogitCache:
    def test_lazy_and_consistent(self, toy):
        x, labels, teacher, _ = toy
        cache = LogitCache(teacher, x)
        assert cache._logits is None
        first = cache.logits
        assert cache._logits is not None
        assert np.allclose(cache[5], first[5])

    def test_batched_forward_eval_mode(self, toy):
        x, _, teacher, _ = toy
        teacher.train()
        batched_forward(teacher, x)
        assert teacher.training  # restored


class TestKD:
    def test_student_learns_from_teacher(self, toy):
        x, labels, teacher, _ = toy
        student = nn.Sequential(nn.Linear(8, 16, rng=np.random.default_rng(1)),
                                nn.ReLU(), nn.Linear(16, 6, rng=np.random.default_rng(2)))
        assert acc(student, x, labels) < 0.5
        distill_kd(teacher, student, x, TrainConfig(epochs=30, batch_size=32, lr=0.1, seed=0),
                   temperature=3.0)
        assert acc(student, x, labels) > 0.9

    def test_accepts_precomputed_logits(self, toy):
        x, labels, teacher, _ = toy
        logits = batched_forward(teacher, x)
        student = nn.Linear(8, 6, rng=np.random.default_rng(3))
        distill_kd(logits, student, x, TrainConfig(epochs=20, batch_size=32, lr=0.1, seed=0))
        assert acc(student, x, labels) > 0.9

    def test_conditional_restriction(self, toy):
        x, labels, teacher, _ = toy
        classes = [0, 1]
        student = nn.Linear(8, 2, rng=np.random.default_rng(4))
        distill_kd(teacher, student, x,
                   TrainConfig(epochs=25, batch_size=32, lr=0.1, seed=0),
                   class_ids=classes)
        mask = labels < 2
        assert acc(student, x[mask], labels[mask]) > 0.9


class TestCKDHead:
    def test_expert_extraction(self, toy):
        x, labels, teacher, _ = toy
        trunk = nn.Sequential(nn.Linear(8, 12, rng=np.random.default_rng(5)), nn.ReLU())
        trunk.requires_grad_(False)
        head = nn.Linear(12, 2, rng=np.random.default_rng(6))
        logits = batched_forward(teacher, x)
        (history,) = distill_ckd(
            logits, head, batched_forward(trunk, x), class_ids=[2, 3],
            config=TrainConfig(epochs=30, batch_size=32, lr=0.1, seed=0),
            settings=CKDSettings(temperature=3.0, alpha=0.3),
        )
        expert = nn.Sequential(trunk, head)
        mask = (labels == 2) | (labels == 3)
        assert acc(expert, x[mask], labels[mask] - 2) > 0.9
        assert len(history.points) == 30

    def test_scale_transfer(self, toy):
        """With alpha>0 the expert's logits live on the teacher's scale."""
        x, labels, teacher, _ = toy
        trunk = nn.Sequential(nn.Linear(8, 12, rng=np.random.default_rng(5)), nn.ReLU())
        trunk.requires_grad_(False)
        logits = batched_forward(teacher, x)
        heads = {}
        for alpha in (0.0, 1.0):
            head = nn.Linear(12, 2, rng=np.random.default_rng(6))
            distill_ckd(
                logits, head, batched_forward(trunk, x), class_ids=[0, 1],
                config=TrainConfig(epochs=40, batch_size=32, lr=0.1, seed=0),
                settings=CKDSettings(temperature=3.0, alpha=alpha),
            )
            heads[alpha] = batched_forward(nn.Sequential(trunk, head), x)
        target = logits[:, [0, 1]]
        err_with = np.abs(heads[1.0] - target).mean()
        err_without = np.abs(heads[0.0] - target).mean()
        assert err_with < err_without  # L_scale pulls raw logits to the oracle's range


class TestBaselines:
    def test_scratch_learns_task(self, toy):
        x, labels, _, _ = toy
        mask = labels < 2
        model = nn.Sequential(nn.Linear(8, 8, rng=np.random.default_rng(8)),
                              nn.ReLU(), nn.Linear(8, 2, rng=np.random.default_rng(9)))
        train_scratch(model, x[mask], labels[mask],
                      TrainConfig(epochs=25, batch_size=16, lr=0.1, seed=0))
        assert acc(model, x[mask], labels[mask]) > 0.9

    def test_transfer_trains_head_only(self, toy):
        x, labels, _, _ = toy
        mask = labels < 2
        trunk = nn.Sequential(nn.Linear(8, 12, rng=np.random.default_rng(10)), nn.ReLU())
        trunk.requires_grad_(False)
        trunk_before = trunk[0].weight.numpy().copy()
        head = nn.Linear(12, 2, rng=np.random.default_rng(11))
        train_transfer(trunk, head, x[mask], labels[mask],
                       TrainConfig(epochs=25, batch_size=16, lr=0.1, seed=0))
        assert np.allclose(trunk[0].weight.numpy(), trunk_before)
        model = nn.Sequential(trunk, head)
        assert acc(model, x[mask], labels[mask]) > 0.9
