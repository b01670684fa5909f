"""Structured event journal: the *why* behind a metric moving.

Rate series (:mod:`repro.obs.timeline`) tell you *that* p95 jumped; the
journal records the discrete events that explain it — cache evictions,
expert version bumps, rebalances, slow queries, worker lifecycle.  Each
event is one JSON-safe dict::

    {"seq": 12, "ts": 1699.123, "service": "shard1",
     "kind": "cache_evict", ...event fields...}

There is one module-level :data:`JOURNAL` per process, mirroring
``TRACER``: disabled it costs one attribute load and one
boolean check per emit site, enabled it appends to a bounded in-memory
ring (oldest dropped and counted) and, when configured, streams to a
size-rotated JSONL file (:class:`~repro.obs.export.RotatingJsonlWriter`).

Shard worker processes enable a memory-only journal at bootstrap; their
events ride back to the front end in the ``STATS`` payload (``"journal"``
key, cursored by ``seq`` so the poller ships each event once) the same
way server-side spans ride in response meta — see
:meth:`EventJournal.since` and :meth:`EventJournal.ingest`.
"""

from __future__ import annotations

import threading
from collections import deque
from time import time
from typing import Deque, Dict, List, Optional

from .export import RotatingJsonlWriter

__all__ = ["EventJournal", "JOURNAL"]

#: Event kinds the stack is documented to emit (docs/observability.md).
EVENT_KINDS = (
    "autotune",
    "cache_evict",
    "expert_update",
    "library_update",
    "rebalance",
    "reshard",
    "mutation_applied",
    "mutation_replayed",
    "slow_query",
    "worker_start",
    "worker_drain",
    "worker_exit",
    "worker_death",
    "worker_respawn",
    "worker_respawn_failed",
    "poll_error",
)


class EventJournal:
    """Bounded in-memory event ring with optional JSONL persistence."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._events: Deque[Dict[str, object]] = deque(maxlen=capacity)
        self._enabled = False
        self._seq = 0
        self._dropped = 0
        self._writer: Optional[RotatingJsonlWriter] = None
        self.service = "main"

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    @property
    def dropped(self) -> int:
        """Events pushed out of the ring before being read."""
        with self._lock:
            return self._dropped

    def enable(
        self,
        writer: Optional[RotatingJsonlWriter] = None,
        service: Optional[str] = None,
    ) -> None:
        """Start recording; ``writer`` adds JSONL persistence (optional)."""
        with self._lock:
            if writer is not None:
                self._writer = writer
            if service is not None:
                self.service = service
            self._enabled = True

    def disable(self) -> None:
        with self._lock:
            self._enabled = False
            writer, self._writer = self._writer, None
        if writer is not None:
            writer.close()

    def reset(self) -> None:
        """Forget all state (fresh start after ``fork``, and in tests)."""
        with self._lock:
            self._events.clear()
            self._enabled = False
            self._seq = 0
            self._dropped = 0
            writer, self._writer = self._writer, None
            self.service = "main"
        if writer is not None:
            writer.close()

    # ------------------------------------------------------------------
    def emit(self, kind: str, **fields: object) -> Optional[Dict[str, object]]:
        """Record one event; a cheap no-op while disabled.

        Fields must be JSON-safe.  Returns the recorded event dict (with
        ``seq``/``ts``/``service`` stamped) or ``None`` when disabled.
        """
        if not self._enabled:
            return None
        event: Dict[str, object] = {"kind": kind, "ts": time()}
        event.update(fields)
        with self._lock:
            if not self._enabled:  # raced with disable()
                return None
            self._seq += 1
            event["seq"] = self._seq
            event.setdefault("service", self.service)
            if len(self._events) == self._events.maxlen:
                self._dropped += 1
            self._events.append(event)
            writer = self._writer
        if writer is not None:
            writer.write(event)
        return event

    # ------------------------------------------------------------------
    def events(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        """The most recent ``limit`` events (all when ``limit`` is None)."""
        with self._lock:
            out = list(self._events)
        if limit is not None and limit >= 0:
            out = out[-limit:] if limit else []
        return out

    def since(self, seq: int) -> List[Dict[str, object]]:
        """Events with ``seq`` strictly greater than the cursor.

        This is the wire-shipping primitive: a STATS response includes
        ``journal.since(0)`` (bounded by the ring), and the poller keeps a
        per-shard cursor so each event crosses once.
        """
        with self._lock:
            return [e for e in self._events if int(e.get("seq", 0)) > seq]

    def ingest(self, events: List[Dict[str, object]]) -> int:
        """Fold remote events (from a STATS payload) into this journal.

        Remote ``seq`` numbers belong to the remote process, so events are
        re-sequenced locally; their ``service``/``ts`` fields are kept.
        Returns the number of events accepted.  No-op while disabled.
        """
        if not self._enabled or not events:
            return 0
        accepted = 0
        with self._lock:
            writer = self._writer
            for remote in events:
                if not self._enabled:
                    break
                event = dict(remote)
                self._seq += 1
                event["seq"] = self._seq
                if len(self._events) == self._events.maxlen:
                    self._dropped += 1
                self._events.append(event)
                accepted += 1
        if writer is not None:
            for event in self.events(accepted):
                writer.write(event)
        return accepted

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


#: Process-wide journal, mirroring ``TRACER``.
JOURNAL = EventJournal()
