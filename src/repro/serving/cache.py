"""Byte-budgeted LRU caches for the serving tier.

:class:`ByteBudgetLRU` is a thread-safe LRU keyed on canonical query keys
(:mod:`repro.serving.canonical`) whose capacity is expressed in *bytes*, not
entries — consolidated models and serialized payloads vary wildly in size,
so an entry-count bound would make memory use unpredictable.  Keys carry
the versions an entry was built from, so a superseded entry is never
matched and simply ages out; :class:`CacheStats` exposes the
hit/eviction accounting the metrics layer reports.

A budget of ``0`` disables the cache: every ``get`` misses and every ``put``
is rejected.  That is how the gateway (and the throughput benchmark's
"caches off" arm) turn a tier off without branching at every call site.

:class:`Doorkeeper` is the one admission policy of the serving tiers:
TinyLFU's doorkeeper, which keeps a key from its second sighting.  The
payload tier and the trunk-feature tier (whose verdict the
prediction-result tier shares) each hold one; eviction is plain LRU.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, List, Optional, Tuple

from ..obs.journal import JOURNAL

__all__ = [
    "BYTES_PER_PARAM",
    "CacheStats",
    "ByteBudgetLRU",
    "Doorkeeper",
    "merge_cache_stats",
]

#: Cache-sizing convention for in-memory models: float32 weights.
BYTES_PER_PARAM = 4

#: How many sighted keys a :class:`Doorkeeper` remembers (~0.6 MiB for
#: the trunk tier's digest keys), oldest forgotten first.
SEEN_KEYS = 4096


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time accounting for one cache tier."""

    budget_bytes: int
    current_bytes: int = 0
    current_entries: int = 0
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    rejections: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never queried)."""
        return self.hits / self.requests if self.requests else 0.0


def merge_cache_stats(parts: List[CacheStats]) -> CacheStats:
    """Aggregate stats across cache instances (e.g. one tier over N shards)."""
    if not parts:
        return CacheStats(budget_bytes=0)
    return CacheStats(
        budget_bytes=sum(p.budget_bytes for p in parts),
        current_bytes=sum(p.current_bytes for p in parts),
        current_entries=sum(p.current_entries for p in parts),
        hits=sum(p.hits for p in parts),
        misses=sum(p.misses for p in parts),
        insertions=sum(p.insertions for p in parts),
        evictions=sum(p.evictions for p in parts),
        rejections=sum(p.rejections for p in parts),
    )


class ByteBudgetLRU:
    """Thread-safe LRU cache bounded by total byte size.

    Parameters
    ----------
    budget_bytes:
        Maximum total size of cached values.  ``0`` disables the cache.
    name:
        Optional tier label; when set, budget-pressure evictions emit a
        ``cache_evict`` event into the process journal (one aggregated
        event per inserting ``put``, not one per victim).
    """

    def __init__(self, budget_bytes: int, name: Optional[str] = None) -> None:
        if budget_bytes < 0:
            raise ValueError("budget_bytes must be >= 0")
        self.budget_bytes = int(budget_bytes)
        self.name = name
        self._lock = threading.Lock()
        # key -> (value, size_bytes)
        self._entries: "OrderedDict[Hashable, Tuple[Any, int]]" = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._insertions = 0
        self._evictions = 0
        self._rejections = 0

    # ------------------------------------------------------------------
    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value (refreshing recency) or ``default``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return default
            self._entries.move_to_end(key)
            self._hits += 1
            return entry[0]

    def put(self, key: Hashable, value: Any, size_bytes: int) -> bool:
        """Insert ``value``; evict entries until within budget.

        Returns ``False`` (and caches nothing) when the value alone exceeds
        the budget: oversized artifacts would only thrash the cache.
        """
        if size_bytes < 0:
            raise ValueError("size_bytes must be >= 0")
        with self._lock:
            # budget 0 means disabled: reject everything, even 0-byte values
            if self.budget_bytes == 0 or size_bytes > self.budget_bytes:
                self._rejections += 1
                return False
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (value, size_bytes)
            self._bytes += size_bytes
            self._insertions += 1
            evicted = 0
            evicted_bytes = 0
            while self._bytes > self.budget_bytes:
                _, (_, victim_size) = self._entries.popitem(last=False)
                self._bytes -= victim_size
                self._evictions += 1
                evicted += 1
                evicted_bytes += victim_size
        if evicted and self.name is not None and JOURNAL.enabled:
            JOURNAL.emit(
                "cache_evict",
                tier=self.name,
                evicted=evicted,
                freed_bytes=evicted_bytes,
                budget_bytes=self.budget_bytes,
            )
        return True

    def refuse(self) -> None:
        """Count a store the caller declined to make (a :class:`Doorkeeper`'s
        refusal) as a rejection."""
        with self._lock:
            self._rejections += 1

    def contains(self, key: Hashable) -> bool:
        """Whether an entry exists for ``key``.

        A stats-neutral peek: no hit/miss accounting and no recency
        refresh, for callers that only *plan* around an entry's presence
        (e.g. a doorkeeper deciding whether a key is already resident)
        and leave the counted lookup to the serving path itself.
        """
        with self._lock:
            return key in self._entries

    def discard(self, key: Hashable) -> bool:
        """Drop one entry if present; returns whether it existed."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return False
            self._bytes -= entry[1]
            return True

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Non-mutating membership test (no recency/stat side effects)."""
        with self._lock:
            return key in self._entries

    def keys(self) -> List[Hashable]:
        """Keys from least- to most-recently used."""
        with self._lock:
            return list(self._entries)

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                budget_bytes=self.budget_bytes,
                current_bytes=self._bytes,
                current_entries=len(self._entries),
                hits=self._hits,
                misses=self._misses,
                insertions=self._insertions,
                evictions=self._evictions,
                rejections=self._rejections,
            )

    def reset_stats(self) -> None:
        """Zero the counters (contents stay); used between benchmark phases."""
        with self._lock:
            self._hits = self._misses = 0
            self._insertions = self._evictions = 0
            self._rejections = 0

    def __repr__(self) -> str:  # pragma: no cover
        s = self.stats()
        return (
            f"ByteBudgetLRU(entries={s.current_entries}, "
            f"bytes={s.current_bytes}/{s.budget_bytes}, "
            f"hit_rate={s.hit_rate:.2f})"
        )


class Doorkeeper:
    """TinyLFU's doorkeeper over one :class:`ByteBudgetLRU`: a key is kept
    from its second sighting.

    A first sighting is built, answered and only *remembered* (the key
    joins a memory of the last ``memory`` keys); the second is stored, the
    third hits.  A stream of one-offs so leaves the tier to the keys that
    repeat.
    """

    def __init__(self, cache: ByteBudgetLRU) -> None:
        self.cache = cache
        self._lock = threading.Lock()
        # recently sighted keys, least recent first
        self._seen: "OrderedDict[Hashable, None]" = OrderedDict()

    def admit(self, key: Hashable) -> bool:
        """One sighting of ``key``: may a store keep an entry for it?

        True when the key is resident or remembered from an earlier
        sighting; otherwise it is remembered and the store is refused.
        Take the verdict once per request and hand it to every store the
        request makes: a second call would read the first one's memory.
        """
        with self._lock:
            if key in self._seen:
                self._seen.move_to_end(key)
                return True
            if self.cache.contains(key):
                return True
            self._seen[key] = None
            if len(self._seen) > SEEN_KEYS:
                self._seen.popitem(last=False)
            return False

    def put(self, key: Hashable, value: Any, size_bytes: int, admitted: bool) -> bool:
        """Store ``value`` if ``admitted``; a refusal counts as a rejection."""
        if not admitted:
            self.cache.refuse()
            return False
        return self.cache.put(key, value, size_bytes)

    def clear(self) -> None:
        """Forget every sighting (the cache's entries stay)."""
        with self._lock:
            self._seen.clear()
