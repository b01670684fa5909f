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

Eviction order is pluggable via :attr:`ByteBudgetLRU.evict_score`: when a
scoring hook is installed, budget pressure removes the *lowest-scoring*
entry instead of the least-recently-used one (ties and hook failures fall
back to LRU).  The self-tuning controller (:mod:`repro.control`) uses this
to keep hot, expensive-to-rebuild composites resident — a GDSF-style
``popularity x rebuild_cost / size`` policy — without this module knowing
anything about popularity or cost.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, List, Optional, Tuple

from ..obs.journal import JOURNAL

__all__ = ["BYTES_PER_PARAM", "CacheStats", "ByteBudgetLRU", "merge_cache_stats"]

#: Cache-sizing convention for in-memory models: float32 weights.
BYTES_PER_PARAM = 4


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
    #: Subset of ``evictions`` chosen by a score hook rather than pure LRU.
    score_evictions: int = 0

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
        score_evictions=sum(p.score_evictions for p in parts),
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
    evict_score:
        Optional ``key -> float`` hook consulted under budget pressure.
        When set, the entry with the strictly lowest score is evicted
        (ties broken by LRU order); when ``None`` (the default) eviction
        is plain LRU, bit-for-bit identical to the unhooked cache.  If
        the just-inserted key itself scores lowest it is removed and the
        ``put`` counts as a rejection, not an insertion — cost-aware
        admission control falls out of the same comparison.  The hook is
        called with the cache lock held: it must not call back into this
        cache and must be cheap.  A raising hook falls back to LRU for
        that eviction.
    """

    def __init__(
        self,
        budget_bytes: int,
        name: Optional[str] = None,
        evict_score: Optional[Callable[[Hashable], float]] = None,
    ) -> None:
        if budget_bytes < 0:
            raise ValueError("budget_bytes must be >= 0")
        self.budget_bytes = int(budget_bytes)
        self.name = name
        self.evict_score = evict_score
        self._lock = threading.Lock()
        # key -> (value, size_bytes)
        self._entries: "OrderedDict[Hashable, Tuple[Any, int]]" = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._insertions = 0
        self._evictions = 0
        self._rejections = 0
        self._score_evictions = 0

    # ------------------------------------------------------------------
    def _pick_victim(self) -> Hashable:
        """Key to evict next (lock held): lowest score, or the LRU head.

        The LRU head is both the default policy and the fallback when the
        hook is absent, raises, or only ties the head's own score — so a
        ``None`` hook leaves behaviour bit-for-bit identical to the
        pre-hook cache.
        """
        lru_key = next(iter(self._entries))
        score = self.evict_score
        if score is None:
            return lru_key
        try:
            best_key = lru_key
            best_score: Optional[float] = None
            for key in self._entries:  # LRU -> MRU, so strict < keeps ties on LRU
                s = float(score(key))
                if best_score is None or s < best_score:
                    best_key, best_score = key, s
            return best_key
        except Exception:
            return lru_key

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
        the budget — oversized artifacts would only thrash the cache — or
        when an installed :attr:`evict_score` hook ranks the new entry
        below everything already resident (admission denied).
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
            admitted = True
            evicted = 0
            evicted_bytes = 0
            while self._bytes > self.budget_bytes:
                victim = self._pick_victim()
                _, victim_size = self._entries.pop(victim)
                self._bytes -= victim_size
                if victim == key:
                    # The new entry itself scored lowest: undo the insert
                    # and report it as a rejection (admission denied).
                    self._insertions -= 1
                    self._rejections += 1
                    admitted = False
                    break
                self._evictions += 1
                if self.evict_score is not None:
                    self._score_evictions += 1
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
        return admitted

    def refuse(self) -> None:
        """Count a store the caller declined to make (an admission gate's
        refusal) as a rejection."""
        with self._lock:
            self._rejections += 1

    def contains(self, key: Hashable) -> bool:
        """Whether an entry exists for ``key``.

        A stats-neutral peek: no hit/miss accounting and no recency
        refresh, for callers that only *plan* around an entry's presence
        (e.g. the micro-batch drain deciding whether to skip trunk work)
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
                score_evictions=self._score_evictions,
            )

    def reset_stats(self) -> None:
        """Zero the counters (contents stay); used between benchmark phases."""
        with self._lock:
            self._hits = self._misses = 0
            self._insertions = self._evictions = 0
            self._rejections = 0
            self._score_evictions = 0

    def __repr__(self) -> str:  # pragma: no cover
        s = self.stats()
        return (
            f"ByteBudgetLRU(entries={s.current_entries}, "
            f"bytes={s.current_bytes}/{s.budget_bytes}, "
            f"hit_rate={s.hit_rate:.2f})"
        )
