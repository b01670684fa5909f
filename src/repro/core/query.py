"""A consolidated model bound to its composite task (paper Fig. 1b).

:class:`TaskSpecificModel` is what the service phase hands out: the
train-free ``M(Q)`` from :meth:`~repro.core.pool.PoolOfExperts.consolidate`
plus the map from its unified-logit positions to *global* class ids and
names.  :meth:`repro.serving.ServingGateway.get_model` serves one (cached,
in canonical task order); :func:`~repro.core.server.deserialize_task_model`
rebuilds one from payload bytes.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..data.hierarchy import CompositeTask
from ..distill.caches import batched_forward
from ..models import (
    BranchedSpecialistNet,
    bank_share_nbytes,
    count_flops,
    frozen_param_count,
)
from ..tensor import Tensor, no_grad
from ..tensor.functional import softmax

__all__ = ["TaskSpecificModel"]


class TaskSpecificModel:
    """A consolidated ``M(Q)`` bound to its composite task.

    Thin inference wrapper: maps the branched network's unified-logit
    positions back to global class ids and human-readable names.
    """

    def __init__(self, network: BranchedSpecialistNet, task: CompositeTask) -> None:
        if network.num_classes != len(task):
            raise ValueError(
                f"network outputs {network.num_classes} classes, task has {len(task)}"
            )
        self.network = network
        self.task = task
        self._classes = np.asarray(task.classes, dtype=np.int64)
        names: List[str] = []
        for prim in task.tasks:
            if prim.class_names:
                names.extend(prim.class_names)
            else:
                names.extend(str(c) for c in prim.classes)
        self._class_names = tuple(names)

    @property
    def classes(self) -> np.ndarray:
        """Global class ids, in unified-logit order."""
        return self._classes

    @property
    def class_names(self) -> Tuple[str, ...]:
        return self._class_names

    def logits(self, images: np.ndarray, batch_size: int = 512) -> np.ndarray:
        """Unified logits ``s_Q``, reference per-head loop path (bit-stable)."""
        return batched_forward(self.network, np.asarray(images, dtype=np.float32), batch_size)

    def fused_logits(self, images: np.ndarray, batch_size: int = 512) -> np.ndarray:
        """Unified logits via the fully fused fast path (no autograd).

        Numerically equal to :meth:`logits` up to float32 round-off: the
        shared trunk runs through its compiled eval-mode program
        (:func:`~repro.core.features.fused_trunk_features` — NHWC GEMMs,
        folded BN, verified against autograd at compile time) and the
        ``n(Q)`` heads execute as one batched pass
        (:meth:`~repro.models.BranchedSpecialistNet.fused_logits`) instead
        of a Python loop.  Use :meth:`logits` where bit-stable output
        matters (payload round-trip checks); predictions use this path.
        """
        from .features import fused_trunk_features

        images = np.asarray(images, dtype=np.float32)
        bank = self.network.fused_bank()
        out = []
        for start in range(0, images.shape[0], batch_size):
            chunk = images[start : start + batch_size]
            features, _ = fused_trunk_features(self.network.trunk, chunk, batch_size)
            out.append(bank(features))
        return np.concatenate(out, axis=0)

    def logits_from_features(self, features: np.ndarray) -> np.ndarray:
        """Fused logits from precomputed trunk features (serving fast path)."""
        return self.network.fused_logits(features)

    def predict_proba(self, images: np.ndarray) -> np.ndarray:
        """Softmax probabilities ``P_Q`` over the task's classes."""
        with no_grad():
            return softmax(Tensor(self.fused_logits(images))).numpy()

    def predict(self, images: np.ndarray) -> np.ndarray:
        """Predicted *global* class ids (fused fast path)."""
        return self._classes[self.fused_logits(images).argmax(axis=1)]

    def predict_names(self, images: np.ndarray) -> List[str]:
        """Predicted class names (fused fast path)."""
        return [self._class_names[i] for i in self.fused_logits(images).argmax(axis=1)]

    def num_params(self) -> int:
        network = self.network
        return frozen_param_count(network.trunk) + sum(
            map(frozen_param_count, network.heads)
        )

    def cache_nbytes(self) -> int:
        """Byte charge for holding this model in a serving cache.

        Counts the module weights plus what the fused bank
        (:meth:`~repro.models.BranchedSpecialistNet.fused_bank`) holds for
        every head — stacked weights, ``bn2`` folded into ``conv1``, tiled
        constants: the bank is stacked on the first prediction, so a cached
        model's steady-state residency includes it even though it may not
        exist yet at insert time.  Summed from per-module constants
        (:func:`~repro.models.frozen_param_count`,
        :func:`~repro.models.bank_share_nbytes`): O(heads), no tree walk.
        """
        # function-local: repro.serving imports this module at import time
        from ..serving.cache import BYTES_PER_PARAM

        return self.num_params() * BYTES_PER_PARAM + sum(
            map(bank_share_nbytes, self.network.heads)
        )

    def num_flops(self, input_shape: Tuple[int, int, int]) -> int:
        return count_flops(self.network, input_shape)
