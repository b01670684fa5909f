"""Serving metrics: per-stage latency histograms and percentile summaries.

Each pipeline stage (queue wait, consolidate, serialize, total) records into
a :class:`LatencyHistogram` — log-spaced buckets for shape, plus a bounded
reservoir of raw samples for exact p50/p95/p99 up to the reservoir size.
:class:`ServingMetrics` aggregates the stage histograms with event counters
(requests, coalesced builds, errors) behind one lock-protected facade that
the gateway, the load drivers, and the CLI all share.

Everything here is deterministic given the recorded values: the reservoir
uses algorithm R with a seeded PRNG so benchmark output is reproducible.

Snapshots follow one **unified versioned schema** (``SNAPSHOT_SCHEMA``)
shared by :class:`ServingMetrics` and :class:`repro.cluster.metrics.ClusterMetrics`::

    {
      "schema": 2,                 # bumped on shape additions (see below)
      "kind": "serving"|"cluster", # which facade produced it
      "stages": {name: {count, mean, p50, p95, p99, max}},
      "counters": {name: int},
      # schema 2 addition (absent means "none", so schema-1 snapshots
      # from old peers merge unchanged):
      "health": {source: {...}},   # stamped by the health scorer
      # cluster only:
      "fanout": {width: int}, "shard_requests": {shard: int},
      # with include_histograms=True:
      "histograms": {name: LatencyHistogram.to_dict()},
    }

Schema 2 adds an optional ``"health"`` table (per-source verdicts from
:class:`repro.obs.health.HealthScorer`; the snapshot layer only
transports it).  It also added a per-task ``"popularity"`` table, which
nothing read and no snapshot carries any more; a peer's table is
ignored like any unknown key.

The Prometheus scrape exporter, the ``BENCH_*.json`` writers, and the
``STATS`` wire frame all consume this one shape; :func:`merge_snapshots`
combines snapshots from multiple shards/workers (counters sum,
histograms merge when present, health tables union, unknown keys are ignored so the merge is
forward-compatible across schema additions).
"""

from __future__ import annotations

import math
import random
import threading
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..obs.trace import TRACER

__all__ = [
    "percentile",
    "LatencyHistogram",
    "ServingMetrics",
    "merge_snapshots",
    "SNAPSHOT_SCHEMA",
    "DOCUMENTED_STAGES",
]

#: Version of the unified snapshot shape (see module docstring).
#: 1 → 2 added ``health`` (and ``popularity``, since dropped) — pure
#: additions, so schema-1 and schema-2 snapshots merge freely.
SNAPSHOT_SCHEMA = 2

#: Stage names the serving stack is documented to emit; the CI scrape
#: smoke asserts every one of these appears in the exposition after a
#: traced networked run (docs/observability.md lists them with meaning).
DOCUMENTED_STAGES = (
    "queue",
    "total",
    "predict_total",
    "predict_trunk_fused",
    "predict_heads",
    "predict_argmax",
    "fetch",
    "assemble",
    "serialize",
)


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]) of ``samples``."""
    if not samples:
        raise ValueError("percentile of empty sample set")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be within [0, 100]")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


class LatencyHistogram:
    """Latency distribution: log2 buckets + a reservoir for exact quantiles.

    Buckets span 1 µs to ~67 s (powers of two); values outside fall into the
    first/last bucket.  The reservoir keeps at most ``max_samples`` raw
    values (algorithm R), so percentiles are exact until that many records
    and statistically representative afterwards.
    """

    _MIN_BUCKET = 1e-6  # 1 µs
    _NUM_BUCKETS = 27  # 2**26 µs ≈ 67 s

    def __init__(self, max_samples: int = 65536, seed: int = 0) -> None:
        if max_samples <= 0:
            raise ValueError("max_samples must be positive")
        self.max_samples = max_samples
        self._rng = random.Random(seed)
        # raw doubles: 8 bytes a sample where a list holds a 32-byte float object
        self._samples = array("d")
        self._buckets = [0] * self._NUM_BUCKETS
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = 0.0

    # ------------------------------------------------------------------
    def record(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("latency cannot be negative")
        self._count += 1
        self._total += seconds
        if seconds < self._min:
            self._min = seconds
        if seconds > self._max:
            self._max = seconds
        self._buckets[self._bucket_index(seconds)] += 1
        if len(self._samples) < self.max_samples:
            self._samples.append(seconds)
        else:
            slot = self._rng.randrange(self._count)
            if slot < self.max_samples:
                self._samples[slot] = seconds

    def _bucket_index(self, seconds: float) -> int:
        if seconds < self._MIN_BUCKET:
            return 0
        index = int(math.log2(seconds / self._MIN_BUCKET)) + 1
        return min(index, self._NUM_BUCKETS - 1)

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Percentile over the reservoir (``q`` in [0, 100])."""
        if not self._samples:
            return 0.0
        return percentile(self._samples, q)

    def buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound_seconds, count)`` pairs for non-empty buckets."""
        out = []
        for i, n in enumerate(self._buckets):
            if n:
                out.append((self._MIN_BUCKET * (2 ** i), n))
        return out

    def summary(self) -> Dict[str, float]:
        if not self._count:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
        return {
            "count": self._count,
            "mean": self.mean,
            "p50": self.quantile(50),
            "p95": self.quantile(95),
            "p99": self.quantile(99),
            "max": self._max,
        }

    # ------------------------------------------------------------------
    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other`` into this histogram (shards/workers combine).

        Buckets, counts, totals, and extrema add exactly; the reservoir
        concatenates then downsamples evenly from the sorted union when it
        would exceed ``max_samples``, so merged quantiles stay
        representative of both sides.
        """
        if other._count == 0:
            return
        self._count += other._count
        self._total += other._total
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        for i, n in enumerate(other._buckets):
            self._buckets[i] += n
        combined = sorted(self._samples + other._samples)
        if len(combined) > self.max_samples:
            step = len(combined) / self.max_samples
            combined = [combined[int(i * step)] for i in range(self.max_samples)]
        self._samples = array("d", combined)

    _MAX_WIRE_SAMPLES = 512  # reservoir slice shipped in to_dict()

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe state for the STATS wire frame / snapshot merging.

        The reservoir is downsampled (evenly from the sorted samples) to
        at most ``_MAX_WIRE_SAMPLES`` values so a 27-stage snapshot stays
        a few KiB on the wire while merged quantiles remain faithful.
        """
        samples = sorted(self._samples)
        if len(samples) > self._MAX_WIRE_SAMPLES:
            step = len(samples) / self._MAX_WIRE_SAMPLES
            samples = [samples[int(i * step)] for i in range(self._MAX_WIRE_SAMPLES)]
        return {
            "count": self._count,
            "total": self._total,
            "min": 0.0 if math.isinf(self._min) else self._min,
            "max": self._max,
            "buckets": list(self._buckets),
            "samples": samples,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LatencyHistogram":
        hist = cls()
        hist._count = int(data["count"])
        hist._total = float(data["total"])
        hist._min = float(data["min"]) if hist._count else math.inf
        hist._max = float(data["max"])
        buckets = list(data.get("buckets") or [])
        for i, n in enumerate(buckets[: cls._NUM_BUCKETS]):
            hist._buckets[i] = int(n)
        hist._samples = array("d", map(float, data.get("samples") or []))
        return hist


class ServingMetrics:
    """Thread-safe aggregate of stage histograms and event counters."""

    def __init__(self, max_samples_per_stage: int = 65536) -> None:
        self._lock = threading.Lock()
        self._max_samples = max_samples_per_stage
        self._stages: Dict[str, LatencyHistogram] = {}
        self._counters: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def observe(self, stage: str, seconds: float) -> None:
        """Record one latency sample for ``stage``."""
        with self._lock:
            hist = self._stages.get(stage)
            if hist is None:
                hist = self._stages[stage] = LatencyHistogram(self._max_samples)
            hist.record(seconds)

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Context manager timing one stage of the pipeline.

        When the request is being traced, the same measurement also lands
        as a child span — one clock read serves both sinks.
        """
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            self.observe(name, elapsed)
            if TRACER.enabled:
                TRACER.record_stage(name, elapsed)

    def increment(self, counter: str, by: int = 1) -> None:
        with self._lock:
            self._counters[counter] = self._counters.get(counter, 0) + by

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def stage_summary(self, name: str) -> Optional[Dict[str, float]]:
        with self._lock:
            hist = self._stages.get(name)
            return hist.summary() if hist is not None else None

    # ------------------------------------------------------------------
    def snapshot(self, include_histograms: bool = False) -> Dict[str, object]:
        """Unified-schema view of every stage summary and counter.

        ``include_histograms`` adds full histogram state (buckets + a
        downsampled reservoir) so snapshots from shards/workers can be
        merged with :func:`merge_snapshots` without losing quantiles.
        """
        with self._lock:
            snap: Dict[str, object] = {
                "schema": SNAPSHOT_SCHEMA,
                "kind": "serving",
                "stages": {name: h.summary() for name, h in self._stages.items()},
                "counters": dict(self._counters),
            }
            if include_histograms:
                snap["histograms"] = {
                    name: h.to_dict() for name, h in self._stages.items()
                }
            return snap

    def render(self, cache_stats: Optional[Dict[str, object]] = None) -> str:
        """Human-readable metrics table (stages, counters, cache tiers)."""
        snap = self.snapshot()
        lines = ["serving metrics"]
        stages = snap["stages"]
        if stages:
            lines.append(
                f"  {'stage':<12} {'count':>7} {'mean':>10} {'p50':>10} "
                f"{'p95':>10} {'p99':>10} {'max':>10}"
            )
            for name in sorted(stages):
                s = stages[name]
                lines.append(
                    f"  {name:<12} {int(s['count']):>7} "
                    + " ".join(_fmt_latency(s[k]) for k in ("mean", "p50", "p95", "p99", "max"))
                )
        counters = snap["counters"]
        if counters:
            lines.append("  counters: " + ", ".join(f"{k}={v}" for k, v in sorted(counters.items())))
        for tier, stats in (cache_stats or {}).items():
            lines.append(
                f"  cache[{tier}]: hit_rate={stats.hit_rate:.1%} "
                f"hits={stats.hits} misses={stats.misses} "
                f"evictions={stats.evictions} bytes={stats.current_bytes}/{stats.budget_bytes}"
            )
        return "\n".join(lines)


def merge_snapshots(snapshots: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Combine unified snapshots from multiple shards/workers into one.

    Counters sum; stage summaries are recomputed from merged histograms
    when every contributor shipped them (``include_histograms=True``),
    otherwise counts/means combine exactly and quantiles fall back to the
    max across contributors (a conservative tail estimate, flagged by the
    ``"approx"`` marker in the merged stage entry).  Fanout/shard-request
    tallies re-key to ``int`` — a JSON round trip (the STATS frame)
    stringifies dict keys.  Schema-2 ``"health"`` tables union (later
    contributors win on a source collision); a pure addition, so schema-1 snapshots
    from old peers contribute everything they have and nothing breaks.
    Unknown keys are ignored.
    """
    merged: Dict[str, object] = {
        "schema": SNAPSHOT_SCHEMA,
        "kind": "cluster" if any(s.get("kind") == "cluster" for s in snapshots) else "serving",
        "stages": {},
        "counters": {},
    }
    counters: Dict[str, int] = merged["counters"]  # type: ignore[assignment]
    for snap in snapshots:
        for name, value in (snap.get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + int(value)

    # histogram-backed stage merge where possible
    merged_hists: Dict[str, LatencyHistogram] = {}
    summary_only: Dict[str, Dict[str, float]] = {}
    for snap in snapshots:
        hists = snap.get("histograms") or {}
        for name, s in (snap.get("stages") or {}).items():
            if name in hists:
                hist = merged_hists.get(name)
                if hist is None:
                    merged_hists[name] = LatencyHistogram.from_dict(hists[name])
                else:
                    hist.merge(LatencyHistogram.from_dict(hists[name]))
            else:
                prev = summary_only.get(name)
                if prev is None:
                    summary_only[name] = dict(s)
                else:
                    total = prev["count"] + s["count"]
                    if total:
                        prev["mean"] = (
                            prev["mean"] * prev["count"] + s["mean"] * s["count"]
                        ) / total
                    prev["count"] = total
                    for key in ("p50", "p95", "p99", "max"):
                        prev[key] = max(prev[key], s[key])
    stages: Dict[str, object] = merged["stages"]  # type: ignore[assignment]
    exact_hists: Dict[str, LatencyHistogram] = {}
    for name, hist in merged_hists.items():
        if name in summary_only:
            # mixed contributors: fold the exact histogram into the
            # conservative summary rather than dropping either side.  The
            # partial histogram must NOT ride along in ``histograms`` —
            # a later re-merge would treat it as the exact record and
            # silently drop the summary side's counts
            s = summary_only.pop(name)
            h = hist.summary()
            total = s["count"] + h["count"]
            if total:
                s["mean"] = (s["mean"] * s["count"] + h["mean"] * h["count"]) / total
            s["count"] = total
            for key in ("p50", "p95", "p99", "max"):
                s[key] = max(s[key], h[key])
            s["approx"] = True
            stages[name] = s
        else:
            exact_hists[name] = hist
            stages[name] = hist.summary()
    for name, s in summary_only.items():
        s["approx"] = True
        stages[name] = s
    if exact_hists:
        merged["histograms"] = {n: h.to_dict() for n, h in exact_hists.items()}

    for key in ("fanout", "shard_requests"):
        combined: Dict[int, int] = {}
        present = False
        for snap in snapshots:
            table = snap.get(key)
            if not table:
                continue
            present = True
            for k, v in table.items():
                combined[int(k)] = combined.get(int(k), 0) + int(v)
        if present:
            merged[key] = combined

    health: Dict[str, object] = {}
    for snap in snapshots:
        table = snap.get("health")
        if isinstance(table, dict):
            health.update(table)
    if health:
        merged["health"] = health
    return merged


def _fmt_latency(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:>9.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:>8.2f}ms"
    return f"{seconds * 1e6:>8.1f}µs"
