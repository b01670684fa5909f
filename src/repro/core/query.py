"""The service phase: realtime model querying (paper Fig. 1b).

:class:`ModelQueryEngine` is the server-side component of the AIaaS scenario
the paper motivates: clients submit a composite task (a set of primitive
task names), the engine assembles the task-specific model from the pool
without any training and returns a :class:`TaskSpecificModel` handle that
predicts *global* class ids / names directly.

The engine is a thin shim over :mod:`repro.serving`: cache keys are the
canonical (sorted) task set, so permutations of the same query share one
cache entry, and the memo itself is a byte-budgeted LRU rather than an
unbounded dict.  For concurrent serving, payload delivery and load
tooling, use :class:`repro.serving.ServingGateway` directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

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
from .pool import PoolOfExperts

__all__ = ["TaskSpecificModel", "QueryRecord", "ModelQueryEngine"]

# A cache entry keeps at most this many head-order variants of one
# consolidated model; a 6-task query has 720 permutations and the byte
# budget only charges the weights once, so wrapper growth must be bounded.
_MAX_ORDER_VARIANTS = 8


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


@dataclass(frozen=True)
class QueryRecord:
    """Bookkeeping for one model query served by the engine."""

    query: Tuple[str, ...]
    seconds: float  # wall-clock consolidation latency
    params: int
    cached: bool


class ModelQueryEngine:
    """Serves task-specific models out of a :class:`PoolOfExperts`.

    Consolidation is train-free, so serving a query is dominated by pure
    Python object construction — microseconds, versus the minutes of
    training that Scratch/Transfer/SD/UHC/CKD would need (Fig. 6-7).

    The memo cache is keyed on the *canonical* task set
    (:func:`repro.serving.canonical_tasks`), so ``query(["a", "b"])`` and
    ``query(["b", "a"])`` share one consolidation; each requested head
    order is materialised at most once per entry (weights are shared by
    reference, so an order variant costs a wrapper, not a copy).  The cache
    is byte-budgeted LRU — hot queries stay, cold ones age out.
    """

    def __init__(
        self,
        pool: PoolOfExperts,
        cache_models: bool = True,
        cache_bytes: int = 64 << 20,
    ) -> None:
        from ..serving.cache import ByteBudgetLRU

        self.pool = pool
        self.cache_models = cache_models
        self._cache = ByteBudgetLRU(cache_bytes if cache_models else 0)
        self.records: List[QueryRecord] = []

    def available_tasks(self) -> Tuple[str, ...]:
        """Primitive tasks that can currently be queried."""
        return self.pool.expert_names()

    def query(self, tasks: Union[CompositeTask, Sequence[str]]) -> TaskSpecificModel:
        """Assemble (or fetch) the task-specific model for ``tasks``.

        The returned model's logit layout follows the *requested* task
        order; caching happens at canonical-key granularity underneath.
        """
        from ..serving.canonical import canonical_tasks

        order = tuple(tasks.names) if isinstance(tasks, CompositeTask) else tuple(tasks)
        key = canonical_tasks(order) if order else order  # empty -> consolidate raises
        start = time.perf_counter()
        entry: Optional[Dict[Tuple[str, ...], TaskSpecificModel]] = self._cache.get(key)
        cached = entry is not None
        if entry is None:
            network, composite = self.pool.consolidate(tasks)
            model = TaskSpecificModel(network, composite)
            self._cache.put(key, {order: model}, model.cache_nbytes())
        elif order in entry:
            model = entry[order]
        else:
            model = self._rewrap(entry, order, tasks)
            if len(entry) < _MAX_ORDER_VARIANTS:
                entry[order] = model
        elapsed = time.perf_counter() - start
        self.records.append(
            QueryRecord(query=key, seconds=elapsed, params=model.num_params(), cached=cached)
        )
        return model

    def _rewrap(
        self,
        entry: Dict[Tuple[str, ...], TaskSpecificModel],
        order: Tuple[str, ...],
        tasks: Union[CompositeTask, Sequence[str]],
    ) -> TaskSpecificModel:
        """Materialise a cached entry under a different head order.

        Reuses the cached model's trunk and heads by reference — no pool
        access, no weight movement, just a new wrapper in ``order``.
        """
        sibling = next(iter(entry.values()))
        heads = dict(zip(sibling.network.head_names, sibling.network.heads))
        composite = (
            tasks
            if isinstance(tasks, CompositeTask)
            else self.pool.hierarchy.composite(order)
        )
        network = BranchedSpecialistNet(
            sibling.network.trunk, [(name, heads[name]) for name in order]
        )
        return TaskSpecificModel(network.eval_over_frozen(), composite)

    def mean_latency(self) -> Optional[float]:
        """Mean consolidation latency over non-cached queries, in seconds."""
        fresh = [r.seconds for r in self.records if not r.cached]
        return float(np.mean(fresh)) if fresh else None
