"""Continuous telemetry: windowed rate series diffed from snapshots.

PR 6's unified snapshot is a single frame — cumulative counters and
lifetime latency summaries.  This module adds the time axis:

* :class:`SeriesWindow` — a fixed-capacity ring of ``(t, value)`` points.
* :class:`TimelineStore` — a thread-safe name → window table.
* :func:`snapshot_rates` — the pure diff: two consecutive unified
  snapshots (plus optional ``cache_stats``) become instantaneous gauges —
  ``qps``, per-counter rates, per-stage p50/p95/p99, cache hit rates,
  mean fan-out.
* :class:`TelemetryPoller` — a daemon thread that polls a set of
  snapshot *sources* every ``interval_s``, feeds the diffs into a store,
  folds remote journal events into the local :data:`~repro.obs.journal.JOURNAL`,
  and records per-source reachability (the ``up`` series the
  :class:`~repro.obs.health.HealthScorer` reads).

Sources are plain callables returning snapshot dicts, so this module
stays stdlib-only;
:meth:`TelemetryPoller.for_gateway` duck-types the serving/cluster
gateway surface (``unified_snapshot``/``shards``/``stats``) to build the
conventional source set without importing those packages.
"""

from __future__ import annotations

import threading
from time import monotonic
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .journal import JOURNAL, EventJournal

__all__ = [
    "SeriesWindow",
    "TimelineStore",
    "snapshot_rates",
    "TelemetryPoller",
]

#: Counters whose per-second rates are always worth a series (others are
#: recorded only once they move, to keep the store tidy).
KEY_COUNTERS = (
    "requests",
    "predictions",
    "errors",
    "coalesced",
    "cross_shard",
    "net_bytes_tx",
    "net_bytes_rx",
    "net_retries",
)

#: Stages whose quantile gauges are tracked per poll.
KEY_STAGES = ("total", "predict_total", "fetch", "net_roundtrip")


class SeriesWindow:
    """Fixed-capacity ring of ``(t, value)`` samples, oldest evicted."""

    def __init__(self, capacity: int = 120) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._points: List[Tuple[float, float]] = []

    def append(self, t: float, value: float) -> None:
        self._points.append((t, value))
        if len(self._points) > self.capacity:
            del self._points[: len(self._points) - self.capacity]

    def values(self) -> List[float]:
        return [v for _, v in self._points]

    def last(self) -> Optional[float]:
        return self._points[-1][1] if self._points else None

    def mean(self) -> float:
        if not self._points:
            return 0.0
        return sum(v for _, v in self._points) / len(self._points)

    def span_s(self) -> float:
        """Wall-time covered by the window (0 with < 2 points)."""
        if len(self._points) < 2:
            return 0.0
        return self._points[-1][0] - self._points[0][0]

    def __len__(self) -> int:
        return len(self._points)


class TimelineStore:
    """Thread-safe table of named :class:`SeriesWindow` rings."""

    def __init__(self, capacity: int = 120) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._series: Dict[str, SeriesWindow] = {}

    def record(self, name: str, t: float, value: float) -> None:
        with self._lock:
            window = self._series.get(name)
            if window is None:
                window = self._series[name] = SeriesWindow(self.capacity)
            window.append(t, value)

    def record_many(self, t: float, values: Dict[str, float]) -> None:
        for name, value in values.items():
            self.record(name, t, value)

    def series(self, name: str) -> Optional[SeriesWindow]:
        with self._lock:
            return self._series.get(name)

    def values(self, name: str) -> List[float]:
        window = self.series(name)
        return window.values() if window is not None else []

    def last(self, name: str) -> Optional[float]:
        window = self.series(name)
        return window.last() if window is not None else None

    def names(self, prefix: str = "") -> List[str]:
        with self._lock:
            return sorted(n for n in self._series if n.startswith(prefix))

    def __len__(self) -> int:
        with self._lock:
            return len(self._series)


def _counter_delta(
    prev: Dict[str, object], curr: Dict[str, object], name: str
) -> float:
    prev_c = prev.get("counters") or {}
    curr_c = curr.get("counters") or {}
    return float(curr_c.get(name, 0)) - float(prev_c.get(name, 0))


def snapshot_rates(
    prev: Dict[str, object], curr: Dict[str, object], dt: float
) -> Dict[str, float]:
    """Diff two consecutive unified snapshots into instantaneous gauges.

    ``prev`` and ``curr`` are unified snapshots (schema 1 or 2), each
    optionally carrying a ``cache_stats`` table (the shard STATS payload
    does).  Counter rates are clamped at zero — a restarted worker's
    counters legitimately go backwards.  Quantile gauges are *lifetime*
    summaries sampled at poll time, not per-interval quantiles.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    out: Dict[str, float] = {}

    prev_counters = prev.get("counters") or {}
    curr_counters = curr.get("counters") or {}
    tracked = set(KEY_COUNTERS) | set(prev_counters) | set(curr_counters)
    for name in tracked:
        if name not in curr_counters and name not in KEY_COUNTERS:
            continue
        delta = _counter_delta(prev, curr, name)
        out[f"rate.{name}"] = max(delta, 0.0) / dt
    out["qps"] = out.get("rate.requests", 0.0) + out.get("rate.predictions", 0.0)

    for stage, summary in (curr.get("stages") or {}).items():
        if stage not in KEY_STAGES:
            continue
        for key in ("p50", "p95", "p99"):
            out[f"stage.{stage}.{key}"] = float(summary.get(key, 0.0))

    prev_cache = prev.get("cache_stats") or {}
    for tier, stats in (curr.get("cache_stats") or {}).items():
        before = prev_cache.get(tier) or {}
        hits = float(stats.get("hits", 0)) - float(before.get("hits", 0))
        misses = float(stats.get("misses", 0)) - float(before.get("misses", 0))
        lookups = hits + misses
        if lookups > 0:
            out[f"cache.{tier}.hit_rate"] = hits / lookups

    open_breakers = 0.0
    for states in (curr.get("breakers") or {}).values():
        for state in (states or {}).values():
            if state != "closed":
                open_breakers += 1.0
    if curr.get("breakers") is not None:
        out["breakers.open"] = open_breakers

    # topology-epoch skew: a replica whose acknowledged epoch trails its
    # shard siblings missed a mutation broadcast — worst per-shard spread
    if curr.get("epoch") is not None:
        out["epoch"] = float(curr["epoch"])
    if curr.get("epochs") is not None:
        skew = 0.0
        for replica_epochs in (curr.get("epochs") or {}).values():
            values = [float(v) for v in (replica_epochs or {}).values()]
            if values:
                skew = max(skew, max(values) - min(values))
        out["epoch.skew"] = skew

    prev_fanout = prev.get("fanout") or {}
    curr_fanout = curr.get("fanout") or {}
    weighted = 0.0
    total = 0.0
    for width, count in curr_fanout.items():
        delta = float(count) - float(prev_fanout.get(width, 0))
        if delta > 0:
            weighted += int(width) * delta
            total += delta
    if total > 0:
        out["fanout.mean"] = weighted / total
    return out


class TelemetryPoller:
    """Background thread turning live snapshots into windowed series.

    ``sources`` maps a label (``"cluster"``, ``"shard0"``, …) to a
    zero-argument callable returning a snapshot dict.  Every interval the
    poller calls each source, diffs against that source's previous
    snapshot (:func:`snapshot_rates`) into ``<label>.<series>`` entries,
    ingests any ``"journal"`` events the payload carried (cursored per
    source so each crosses once), and records ``<label>.up`` (1.0/0.0).
    A source that raises is marked down and journals a ``poll_error``.

    The poller holds no references into the serving stack beyond the
    source callables, costs nothing when not constructed, and is safe to
    ``stop()`` from any thread.
    """

    def __init__(
        self,
        sources: Dict[str, Callable[[], Dict[str, object]]],
        interval_s: float = 1.0,
        store: Optional[TimelineStore] = None,
        journal: Optional[EventJournal] = None,
        window: int = 120,
        clock: Callable[[], float] = monotonic,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.sources = dict(sources)
        self.interval_s = interval_s
        self.store = store if store is not None else TimelineStore(window)
        self.journal = journal if journal is not None else JOURNAL
        self._clock = clock
        self._prev: Dict[str, Tuple[float, Dict[str, object]]] = {}
        self._journal_cursor: Dict[Tuple[str, object], int] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.polls = 0
        self.poll_errors = 0

    # ------------------------------------------------------------------
    @classmethod
    def for_gateway(cls, gateway: object, **kwargs: object) -> "TelemetryPoller":
        """Build the conventional source set for a gateway (duck-typed).

        * anything with ``unified_snapshot()`` contributes a ``cluster``
          source (the merged front-end view);
        * each entry of a ``shards`` sequence contributes ``shard<N>``,
          answered by its ``stats()`` (a STATS round trip for a networked
          shard, which also carries the workers' journal rings);
        * a bare :class:`~repro.serving.gateway.ServingGateway` (has
          ``metrics`` but no shards) becomes a single ``serving`` source.
        """
        sources: Dict[str, Callable[[], Dict[str, object]]] = {}
        unified = getattr(gateway, "unified_snapshot", None)
        if callable(unified):
            sources["cluster"] = unified
        shards: Sequence[object] = getattr(gateway, "shards", ()) or ()
        for index, shard in enumerate(shards):
            label = f"shard{getattr(shard, 'shard_id', index)}"
            sources[label] = shard.stats  # type: ignore[attr-defined]
        if not sources:
            metrics = getattr(gateway, "metrics", None)
            if metrics is None:
                raise TypeError(
                    "cannot derive telemetry sources from "
                    f"{type(gateway).__name__!r}"
                )
            cache_stats_fn = getattr(gateway, "cache_stats", None)
            sources["serving"] = _serving_source(metrics, cache_stats_fn)
        return cls(sources, **kwargs)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    def poll_once(self) -> Dict[str, Dict[str, float]]:
        """One synchronous sweep over every source (tests/CI call this).

        Returns ``{label: {series: value}}`` for sources that produced a
        diff this sweep (a source's first poll only seeds its baseline).
        """
        self.polls += 1
        now = self._clock()
        produced: Dict[str, Dict[str, float]] = {}
        for label, source in self.sources.items():
            try:
                snap = source()
            except Exception as exc:  # noqa: BLE001 - any failure = down
                self.poll_errors += 1
                self.store.record(f"{label}.up", now, 0.0)
                self._prev.pop(label, None)
                self.journal.emit(
                    "poll_error", source=label, error=f"{type(exc).__name__}: {exc}"
                )
                continue
            self.store.record(f"{label}.up", now, 1.0)
            self._ingest_journal(label, snap)
            prev = self._prev.get(label)
            if prev is not None:
                prev_t, prev_snap = prev
                dt = now - prev_t
                if dt > 0:
                    rates = snapshot_rates(prev_snap, snap, dt)
                    self.store.record_many(
                        now, {f"{label}.{k}": v for k, v in rates.items()}
                    )
                    produced[label] = rates
            self._prev[label] = (now, snap)
        return produced

    def _ingest_journal(self, label: str, snap: Dict[str, object]) -> None:
        """Fold a source's fresh events into the journal: one ``seq``
        cursor per (source, replica), since each replica of a shard
        numbers its events on its own."""
        events = snap.get("journal")
        if not isinstance(events, list) or not events:
            return
        cursor, fresh = self._journal_cursor, []
        for event in events:  # each replica's events come in seq order
            key, seq = (label, event.get("replica", 0)), int(event.get("seq", 0))
            if seq > cursor.get(key, 0):
                cursor[key] = seq
                fresh.append(event)
        if fresh:
            self.journal.ingest(fresh)

    # ------------------------------------------------------------------
    def start(self) -> "TelemetryPoller":
        if self._thread is not None:
            raise RuntimeError("poller already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="telemetry-poller", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.poll_once()
            except Exception:  # noqa: BLE001 - the poller must not die
                self.poll_errors += 1

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
            self._thread = None

    def __enter__(self) -> "TelemetryPoller":
        return self.start()

    def __exit__(self, *exc_info) -> bool:
        self.stop()
        return False


def _serving_source(
    metrics: object, cache_stats_fn: Optional[Callable[[], Dict[str, object]]]
) -> Callable[[], Dict[str, object]]:
    def source() -> Dict[str, object]:
        snap = metrics.snapshot(include_histograms=True)  # type: ignore[attr-defined]
        if callable(cache_stats_fn):
            snap["cache_stats"] = {
                tier: _stats_dict(s) for tier, s in cache_stats_fn().items()
            }
        return snap

    return source


def _stats_dict(stats: object) -> Dict[str, object]:
    if isinstance(stats, dict):
        return stats
    if hasattr(stats, "__dataclass_fields__"):
        import dataclasses

        return dataclasses.asdict(stats)
    return dict(vars(stats))
