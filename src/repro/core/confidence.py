"""Confidence analysis of specialized models (paper §5.2, Figure 5).

A *properly confident* expert assigns low maximum probability to
out-of-distribution inputs — images of classes outside its primitive task.
Scratch/Transfer experts are overconfident (mode ≥ 0.9 on OOD inputs);
CKD experts are not (mode 0.3-0.4).  These tools compute the histograms and
summary statistics that reproduce that figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from ..data.dataset import ArrayDataset
from ..data.hierarchy import CompositeTask, PrimitiveTask
from ..distill.caches import batched_forward
from ..nn import Module
from ..tensor import Tensor, no_grad
from ..tensor.functional import softmax

__all__ = ["ConfidenceProfile", "max_confidences", "ood_confidence_profile"]

TaskLike = Union[PrimitiveTask, CompositeTask]


@dataclass(frozen=True)
class ConfidenceProfile:
    """Histogram + summary stats of maximum predicted probabilities."""

    histogram: np.ndarray  # relative frequency per bin
    bin_edges: np.ndarray
    mean: float
    median: float
    overconfident_rate: float  # fraction of samples with max prob > 0.9
    confidences: np.ndarray  # the max probability of each sample, in dataset order

    @property
    def mode_bin(self) -> Tuple[float, float]:
        """The (lo, hi) edges of the most frequent confidence bin."""
        i = int(self.histogram.argmax())
        return float(self.bin_edges[i]), float(self.bin_edges[i + 1])


def max_confidences(model: Module, images: np.ndarray, batch_size: int = 512) -> np.ndarray:
    """Highest class probability per sample (the paper's 'confidence')."""
    logits = batched_forward(model, images, batch_size)
    with no_grad():
        probs = softmax(Tensor(logits)).numpy()
    return probs.max(axis=1)


def ood_confidence_profile(
    model: Module,
    dataset: ArrayDataset,
    task: TaskLike,
    bins: int = 10,
    batch_size: int = 512,
) -> ConfidenceProfile:
    """Confidence profile of a specialist on *out-of-distribution* samples.

    OOD = samples of ``dataset`` whose (global) label lies outside ``task``.
    Any prediction on them is necessarily wrong — the model lacks the true
    class — so what matters is *how confident* the wrong answers are.
    """
    classes = np.asarray(task.classes, dtype=np.int64)
    mask = ~np.isin(dataset.labels, classes)
    if not mask.any():
        raise ValueError("dataset has no out-of-distribution samples for this task")
    confidences = max_confidences(model, dataset.images[mask], batch_size)
    hist, edges = np.histogram(confidences, bins=bins, range=(0.0, 1.0))
    hist = hist.astype(np.float64)
    hist /= hist.sum()
    return ConfidenceProfile(
        histogram=hist,
        bin_edges=edges,
        mean=float(confidences.mean()),
        median=float(np.median(confidences)),
        overconfident_rate=float((confidences > 0.9).mean()),
        confidences=confidences,
    )
