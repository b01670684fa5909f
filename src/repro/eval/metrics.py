"""Accuracy metrics, including the paper's *task-specific accuracy*.

§5.2: generic models (oracle, KD students) are never scored on overall
accuracy against specialists; instead their probability values are compared
*locally* — only the columns of the target task's classes are considered,
and the argmax within the task is the prediction.  Specialized models are
scored with normal accuracy on the task's (label-remapped) test data.

Both are means of :func:`task_correct`'s per-image vector, which a result
record keeps as :func:`pack_correct` bits; :func:`score` builds that record.
"""

from __future__ import annotations

import base64
from typing import Dict, Tuple, Union

import numpy as np

from ..data.dataset import ArrayDataset, task_subset
from ..data.hierarchy import CompositeTask, PrimitiveTask
from ..distill.caches import batched_forward
from ..models import count_flops, count_params
from ..nn import Module

__all__ = [
    "accuracy_from_logits",
    "accuracy",
    "task_correct",
    "task_specific_accuracy",
    "specialized_accuracy",
    "pack_correct",
    "unpack_correct",
    "score",
]

TaskLike = Union[PrimitiveTask, CompositeTask]


def accuracy_from_logits(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose argmax equals the label."""
    return float((logits.argmax(axis=1) == labels).mean())


def accuracy(
    model: Module, dataset: ArrayDataset, batch_size: int = 512
) -> float:
    """Plain top-1 accuracy of a model whose outputs match the labels."""
    logits = batched_forward(model, dataset.images, batch_size)
    return accuracy_from_logits(logits, dataset.labels)


def task_correct(
    model: Module,
    dataset: ArrayDataset,
    task: TaskLike,
    generic: bool,
    batch_size: int = 512,
) -> np.ndarray:
    """Per-image correctness on ``dataset``'s samples of the task, in dataset order.

    ``dataset`` carries global labels.  A *generic* model's output is read
    only in the task's columns; a specialized model must output exactly the
    task's classes, in its local (label-remapped) order.
    """
    subset = task_subset(dataset, task)
    if not len(subset):
        raise ValueError("dataset contains no samples of the task's classes")
    logits = batched_forward(model, subset.images, batch_size)
    if generic:
        logits = logits[:, np.asarray(task.classes, dtype=np.int64)]
    elif logits.shape[1] != len(task.classes):
        raise ValueError(
            f"model outputs {logits.shape[1]} classes but task has {len(task.classes)}"
        )
    return logits.argmax(axis=1) == subset.labels


def task_specific_accuracy(
    model: Module,
    dataset: ArrayDataset,
    task: TaskLike,
    batch_size: int = 512,
) -> float:
    """Task-specific accuracy of a *generic* model (paper §5.2)."""
    return float(task_correct(model, dataset, task, True, batch_size).mean())


def specialized_accuracy(
    model: Module,
    dataset: ArrayDataset,
    task: TaskLike,
    batch_size: int = 512,
) -> float:
    """Normal accuracy of a specialized model over the task's test samples."""
    return float(task_correct(model, dataset, task, False, batch_size).mean())


def pack_correct(correct: np.ndarray) -> str:
    """Base64 of ``np.packbits(correct)``: image ``i`` is bit ``7 - i % 8``
    of byte ``i // 8`` (the first image is the first byte's high bit)."""
    return base64.b64encode(np.packbits(correct)).decode("ascii")


def unpack_correct(bits: str, n_images: int) -> np.ndarray:
    """The boolean per-image vector :func:`pack_correct` encoded."""
    packed = np.frombuffer(base64.b64decode(bits), dtype=np.uint8)
    return np.unpackbits(packed, count=n_images).astype(bool)


def score(
    model: Module,
    dataset: ArrayDataset,
    task: TaskLike,
    generic: bool,
    input_shape: Tuple[int, int, int],
) -> Dict:
    """A built model's result fields: its accuracy on the task's test images
    (with the per-image bits and their count), cost and architecture."""
    correct = task_correct(model, dataset, task, generic)
    return {
        "accuracy": float(correct.mean()),
        "correct": pack_correct(correct),
        "n_images": int(correct.size),
        "params": count_params(model),
        "flops": count_flops(model, input_shape),
        "arch": model.arch_name(),
        "type": "generic" if generic else "special",
    }
