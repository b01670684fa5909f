"""Request-scoped distributed tracing: spans, a bounded collector, one tracer.

A **trace** is one request's journey through the stack; a **span** is one
named region of work inside it (``cluster.predict`` → ``net.predict`` →
``shard.predict`` → ``gateway.predict`` → ``predict_heads`` …).  Spans
carry a ``trace_id`` shared by the whole request, their own ``span_id``,
their parent's id (``None`` for a local root), a wall-clock start, a
monotonic duration (:func:`time.perf_counter` deltas — never wall-clock
arithmetic), and free-form string/number tags.

Design constraints, in order:

* **Near-zero cost when off.**  :meth:`Tracer.span` checks one boolean
  and returns a shared no-op context manager; the serving hot paths pay
  one attribute load + one call per request when tracing is disabled.
* **Thread-safe, bounded.**  Finished spans land in a
  :class:`SpanCollector` ring buffer under a lock; when full, the oldest
  spans are dropped (and counted) rather than growing without bound.
* **Cross-process stitching.**  :meth:`Tracer.inject` exports the active
  span as a small JSON-safe dict (``trace_id`` + ``parent_id``); the
  server side resumes it with :meth:`Tracer.continue_from`, collects the
  request's spans with :meth:`SpanCollector.take_trace`, and ships them
  back in the response for :meth:`Tracer.attach` to merge — one query,
  one coherent span tree, no clock synchronization required (durations
  are per-process monotonic).

The ambient active span rides a :class:`contextvars.ContextVar`, so
nesting works across ``async`` tasks and within one thread; work handed
to executor threads starts a fresh local root.

There is one module-level :data:`TRACER`; everything in the serving
stack records through it so a single ``TRACER.enable()`` lights up the
whole process.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from contextvars import ContextVar
from time import perf_counter, time
from typing import Deque, Dict, Iterable, List, Optional, Set, Tuple

__all__ = ["Span", "SpanCollector", "Tracer", "TRACER", "new_id"]


def new_id() -> str:
    """A fresh 64-bit hex id (trace or span)."""
    return os.urandom(8).hex()


class Span:
    """One in-progress region of work; becomes a plain dict when finished."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "service",
        "started_at",
        "duration",
        "tags",
        "_t0",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        service: str,
        tags: Optional[Dict[str, object]] = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.service = service
        self.started_at = time()
        self.duration: Optional[float] = None
        self.tags: Dict[str, object] = dict(tags) if tags else {}
        self._t0 = perf_counter()

    def tag(self, key: str, value: object) -> None:
        """Attach one JSON-safe tag (str/int/float/bool)."""
        self.tags[key] = value

    def to_dict(self) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "service": self.service,
            "start": self.started_at,
            "duration": self.duration,
            "tags": self.tags,
        }


class _NoopSpan:
    """Shared do-nothing stand-in returned when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def tag(self, key: str, value: object) -> None:
        pass


_NOOP = _NoopSpan()


class SpanCollector:
    """Thread-safe bounded ring buffer of finished span dicts.

    ``capacity`` bounds memory on a long-lived process: when full, the
    oldest span is dropped and counted in :attr:`dropped`.  ``add`` is
    idempotent per ``span_id`` (cross-process stitching can re-deliver a
    span that was already recorded locally, e.g. when client and server
    share one process in tests).
    """

    def __init__(self, capacity: int = 8192) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._spans: Deque[Dict[str, object]] = deque()
        self._ids: Set[str] = set()
        self._dropped = 0

    def add(self, span: Dict[str, object]) -> bool:
        """Record one finished span dict; False if its id was already held."""
        span_id = span.get("span_id")
        with self._lock:
            if span_id in self._ids:
                return False
            if len(self._spans) >= self.capacity:
                evicted = self._spans.popleft()
                self._ids.discard(evicted.get("span_id"))  # type: ignore[arg-type]
                self._dropped += 1
            self._spans.append(span)
            if span_id is not None:
                self._ids.add(span_id)  # type: ignore[arg-type]
            return True

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def spans(self) -> List[Dict[str, object]]:
        """A snapshot copy of every buffered span (oldest first)."""
        with self._lock:
            return list(self._spans)

    def trace(self, trace_id: str) -> List[Dict[str, object]]:
        """Non-destructive view of one trace's buffered spans."""
        with self._lock:
            return [s for s in self._spans if s.get("trace_id") == trace_id]

    def take_trace(self, trace_id: str) -> List[Dict[str, object]]:
        """Remove and return one trace's spans (server-side extraction)."""
        with self._lock:
            taken: List[Dict[str, object]] = []
            kept: Deque[Dict[str, object]] = deque()
            for span in self._spans:
                if span.get("trace_id") == trace_id:
                    taken.append(span)
                    self._ids.discard(span.get("span_id"))  # type: ignore[arg-type]
                else:
                    kept.append(span)
            self._spans = kept
            return taken


class _SpanScope:
    """Context manager for one live span (enter sets the ambient active)."""

    __slots__ = ("_tracer", "_name", "_tags", "_trace_id", "_parent_id", "span", "_token")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        tags: Optional[Dict[str, object]],
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._tags = tags
        self._trace_id = trace_id
        self._parent_id = parent_id
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        if self._trace_id is not None:
            trace_id, parent_id = self._trace_id, self._parent_id
        else:
            parent = _ACTIVE.get()
            if parent is not None:
                trace_id, parent_id = parent.trace_id, parent.span_id
            else:
                trace_id, parent_id = new_id(), None
        self.span = Span(
            trace_id, new_id(), parent_id, self._name, self._tracer.service, self._tags
        )
        self._token = _ACTIVE.set(self.span)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self.span
        assert span is not None
        span.duration = perf_counter() - span._t0
        if exc_type is not None:
            span.tags["error"] = exc_type.__name__
        _ACTIVE.reset(self._token)
        self._tracer._finish(span, local_root=self._trace_id is None and span.parent_id is None)
        return False


_ACTIVE: ContextVar[Optional[Span]] = ContextVar("repro_obs_active_span", default=None)


class Tracer:
    """The process-wide tracing facade (one instance: :data:`TRACER`).

    Disabled by default; :meth:`enable` flips recording on and optionally
    attaches a JSONL writer and a slow-query log (duck-typed — anything
    with ``write(span_dict)`` / ``maybe_record(root, spans)`` works, see
    :mod:`repro.obs.export`).
    """

    def __init__(self, service: str = "main", capacity: int = 8192) -> None:
        self.service = service
        self.collector = SpanCollector(capacity)
        self._enabled = False
        self._writer = None
        self._slow_log = None

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self, writer=None, slow_log=None, service: Optional[str] = None) -> None:
        if service is not None:
            self.service = service
        if writer is not None:
            self._writer = writer
        if slow_log is not None:
            self._slow_log = slow_log
        self._enabled = True

    def ensure_enabled(self, service: Optional[str] = None) -> None:
        """Enable if not already (server side lights up on first traced request)."""
        if not self._enabled:
            self.enable(service=service)

    def disable(self) -> None:
        """Stop recording; buffered spans and exporter hooks are kept."""
        self._enabled = False

    def reset(self) -> None:
        """Back to a pristine disabled tracer (tests and CLI reruns)."""
        self._enabled = False
        self._writer = None
        self._slow_log = None
        self.collector = SpanCollector(self.collector.capacity)

    # ------------------------------------------------------------------
    def span(self, name: str, tags: Optional[Dict[str, object]] = None):
        """Open one span under the ambient active span (or a new root).

        Returns a context manager yielding the live :class:`Span` — or a
        shared no-op when tracing is disabled, so hot paths can call this
        unconditionally.
        """
        if not self._enabled:
            return _NOOP
        return _SpanScope(self, name, tags)

    def continue_from(
        self, ctx: Dict[str, object], name: str, tags: Optional[Dict[str, object]] = None
    ):
        """Open a span continuing a remote caller's trace context.

        ``ctx`` is the dict :meth:`inject` produced on the caller side
        (``trace_id`` + ``parent_id``).  Used by the server half of the
        wire protocol; enables the tracer if needed.
        """
        self.ensure_enabled()
        return _SpanScope(
            self,
            name,
            tags,
            trace_id=str(ctx["trace_id"]),
            parent_id=str(ctx["parent_id"]) if ctx.get("parent_id") else None,
        )

    def current(self) -> Optional[Span]:
        """The ambient active span, if any."""
        return _ACTIVE.get()

    def inject(self) -> Optional[Dict[str, str]]:
        """Wire-ready trace context of the active span (None when untraced)."""
        if not self._enabled:
            return None
        span = _ACTIVE.get()
        if span is None:
            return None
        return {"trace_id": span.trace_id, "parent_id": span.span_id}

    def record_stage(
        self, name: str, seconds: float, tags: Optional[Dict[str, object]] = None
    ) -> None:
        """Record an already-timed leaf span under the active span.

        The :meth:`ServingMetrics.stage` hook: stage timings become child
        spans for free whenever a request is being traced.  No ambient
        span → no record (stages outside a traced request stay metrics-only).
        """
        if not self._enabled:
            return
        parent = _ACTIVE.get()
        if parent is None:
            return
        span = Span(
            parent.trace_id, new_id(), parent.span_id, name, self.service, tags
        )
        span.started_at -= seconds  # started `seconds` before this call
        span.duration = seconds
        self._finish(span, local_root=False)

    def attach(self, spans: Iterable[Dict[str, object]]) -> int:
        """Merge remote span dicts into the local collector (stitching).

        Returns how many were new (already-held span ids are skipped, so
        in-process loopback cannot duplicate spans).
        """
        added = 0
        for span in spans:
            if self.collector.add(dict(span)):
                added += 1
                writer = self._writer
                if writer is not None:
                    writer.write(span)
        return added

    # ------------------------------------------------------------------
    def _finish(self, span: Span, local_root: bool) -> None:
        record = span.to_dict()
        self.collector.add(record)
        writer = self._writer
        if writer is not None:
            writer.write(record)
        if local_root:
            slow_log = self._slow_log
            if slow_log is not None:
                slow_log.maybe_record(record, self.collector.trace(span.trace_id))


#: The process-wide tracer every serving layer records through.
TRACER = Tracer()
