"""Content-addressed trunk-feature caching.

The library trunk is frozen the moment it is extracted, so its features
over a given image batch are a pure function of the *bytes* of that batch
— reusable across every composite model ``M(Q)``, every expert
extraction, and every repeated prediction request.  This module provides:

* :func:`array_digest` — a stable content hash for numpy arrays (shape,
  dtype and raw bytes), the one cache identity shared by the
  preprocessing memos in :class:`~repro.core.pool.PoolOfExperts` and the
  serving tier's feature cache.  Keying on content (not on ``shape[0]``,
  as an earlier memo did) is what makes "different batch, same row count"
  a miss instead of silently returning the previous batch's features.
* :class:`TrunkFeatureCache` — a byte-budgeted LRU of feature arrays
  keyed on ``(library version, image digest)``, shared by the prediction
  fast path (:meth:`~repro.serving.ServingGateway.predict`) so repeated or
  cross-composite predictions on the same images run the shared trunk
  once.  Its admission gate (:meth:`TrunkFeatureCache.admit`) also
  decides what the prediction-result tier keeps.
* :func:`fused_trunk_features` — the cache's **miss path**: one trunk
  forward through the compiled eval-mode program
  (:class:`repro.nn.fused.FusedTrunk` — NHWC GEMMs, folded BN, no
  autograd graph), falling back to the autograd engine only for trunks
  the compiler cannot walk.  This is what makes *cold* predictions fast,
  not just repeat traffic.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Callable, Hashable, Optional, Tuple

import numpy as np

__all__ = ["array_digest", "fused_trunk_features", "TrunkFeatureCache"]

#: How many sightings (``(library version, digest)`` keys) a
#: :class:`TrunkFeatureCache` remembers for its admission gate (~0.6 MiB
#: with the digest strings), oldest forgotten first.
SEEN_DIGESTS = 4096


def array_digest(array: np.ndarray) -> str:
    """Stable content hash of an array: shape + dtype + bytes (blake2b).

    Two arrays collide only if they are byte-identical with the same shape
    and dtype — in particular, two different image batches with the same
    row count get different digests.
    """
    array = np.asarray(array)
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(str(array.shape).encode())
    hasher.update(str(array.dtype).encode())
    hasher.update(np.ascontiguousarray(array))  # a C-order batch is hashed in place
    return hasher.hexdigest()


def fused_trunk_features(
    trunk, images: np.ndarray, batch_size: int = 512
) -> Tuple[np.ndarray, bool]:
    """``(features, used_fused)`` — one eval-mode trunk forward.

    Runs the compiled NHWC program (:func:`repro.nn.fused.fused_trunk_for`,
    memoized per trunk object and verified ``allclose`` against autograd at
    compile time).  A trunk the compiler cannot lower — anything that does
    not walk like a :class:`~repro.models.wrn.WRNTrunk` — falls back to the
    autograd engine, so callers never lose correctness, only speed.
    """
    from ..nn.fused import fused_trunk_for

    try:
        fused = fused_trunk_for(trunk)
    except (AttributeError, TypeError, ValueError):
        from ..distill.caches import batched_forward

        return batched_forward(trunk, images, batch_size), False
    return fused(images, batch_size), True


class TrunkFeatureCache:
    """Byte-budgeted LRU of trunk feature maps, keyed ``(library version,
    image digest)``.

    A thin, purpose-named wrapper over
    :class:`~repro.serving.cache.ByteBudgetLRU`: entries are the raw
    feature arrays, charged at ``features.nbytes``.  A budget of 0
    disables caching (every lookup misses), mirroring the serving tiers.
    The library version in the key is the one of the trunk that computed
    the features, so a feature map of a superseded trunk can never match
    a lookup at the current one; it ages out of the LRU.

    Serving stores pass an admission gate, TinyLFU's doorkeeper: a batch's
    first sighting is computed, answered and only *remembered* (its key
    joins a memory of the last :data:`SEEN_DIGESTS` keys), its second is
    stored, its third hits.  A stream of never-repeated batches so leaves
    the tier empty.  The prediction-result tier, keyed on the same
    digests, keeps an answer on the same verdict (:meth:`admit`).  An
    explicit :meth:`put` is not gated.
    """

    def __init__(self, budget_bytes: int) -> None:
        from ..serving.cache import ByteBudgetLRU

        self._lru = ByteBudgetLRU(budget_bytes)
        # guards the sighting memory
        self._lock = threading.Lock()
        # recently sighted keys, least recent first
        self._seen: "OrderedDict[Hashable, None]" = OrderedDict()

    def get(self, key: Hashable) -> Optional[np.ndarray]:
        return self._lru.get(key)

    def put(self, key: Hashable, features: np.ndarray, admitted: bool = True) -> bool:
        """Store ``features`` under ``key`` if ``admitted`` (a refused
        sighting counts as a rejection)."""
        if not admitted:
            self._lru.refuse()
            return False
        return self._lru.put(key, features, int(features.nbytes))

    def admit(self, key: Hashable) -> bool:
        """One sighting of ``key``: may a serving store keep an entry for it?

        True when the key is resident or remembered from an earlier
        sighting; otherwise it is remembered and the store is refused.
        Take the verdict once per request and hand it to every store the
        request makes: a second call would read the first one's memory.
        """
        with self._lock:
            if key in self._seen:
                self._seen.move_to_end(key)
                return True
            if self._lru.contains(key):
                return True
            self._seen[key] = None
            if len(self._seen) > SEEN_DIGESTS:
                self._seen.popitem(last=False)
            return False

    def get_or_compute(
        self,
        images: np.ndarray,
        compute: Callable[[np.ndarray], np.ndarray],
        version: int,
        digest: Optional[str] = None,
        admitted: Optional[bool] = None,
    ) -> Tuple[np.ndarray, bool]:
        """``(features, was_hit)`` for ``images`` — the one lookup protocol.

        ``compute`` runs the trunk at library ``version``; a miss runs it
        and stores the result under ``(version, digest)`` when admitted.
        Every caller (gateway, cluster, micro-batcher) shares this sequence
        so digesting and insertion can't drift apart.  Pass ``digest`` when
        the caller already hashed the images (e.g. for a prediction-result
        lookup) to avoid hashing twice, and ``admitted`` when it already
        took the request's :meth:`admit` verdict; without one a miss takes
        it here.
        """
        if self._lru.budget_bytes == 0:
            # disabled cache: skip the digest, it could never hit anyway
            return compute(images), False
        if digest is None:
            digest = array_digest(images)
        key = (version, digest)
        features = self.get(key)
        if features is not None:
            return features, True
        if admitted is None:
            admitted = self.admit(key)
        features = compute(images)
        self.put(key, features, admitted)
        return features, False

    def clear(self) -> None:
        """Drop everything, remembered keys included."""
        with self._lock:
            self._seen.clear()
            self._lru.clear()

    def stats(self):
        return self._lru.stats()

    def reset_stats(self) -> None:
        self._lru.reset_stats()

    def __len__(self) -> int:
        return len(self._lru)

    def __repr__(self) -> str:  # pragma: no cover
        return f"TrunkFeatureCache({self._lru!r})"
