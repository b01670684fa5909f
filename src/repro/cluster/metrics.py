"""Cluster-level telemetry: per-shard traffic and cross-shard fan-out.

:class:`ClusterMetrics` extends the serving metrics vocabulary with the
two things only a cluster can see:

* **per-shard traffic** — how many queries each shard served (and at what
  cache hit rate, read off the shard gateways at render time), exposing
  placement skew the router's balance tests bound statically;
* **fan-out histogram** — how many shards each query touched.  Fan-out 1
  is the fast path (one shard, no head movement); the histogram is the
  live measure of how well routing + hot-expert replication keep composite
  queries local.

Latency stages (``fetch``, ``assemble``, ``serialize``, ``total``) and
counters reuse :class:`~repro.serving.ServingMetrics`, so the render shape
matches the single-gateway tooling.  Networked deployments
(:mod:`repro.net`) add the wire's own telemetry into the same instance: a
``net_roundtrip`` latency stage (its count is the requests sent) plus
``net_bytes_tx`` / ``net_bytes_rx`` counters, recorded by every
:class:`~repro.net.client.RemoteShardClient` the cluster owns.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Sequence

from ..serving.metrics import ServingMetrics

__all__ = ["ClusterMetrics"]


class ClusterMetrics(ServingMetrics):
    """:class:`ServingMetrics` plus the fan-out and per-shard tables."""

    def __init__(self, max_samples_per_stage: int = 65536) -> None:
        super().__init__(max_samples_per_stage)
        self._fanout: Dict[int, int] = {}
        self._per_shard: Dict[int, int] = {}
        self._started_at = perf_counter()

    # ------------------------------------------------------------------
    # Recording (under the base class's lock)
    # ------------------------------------------------------------------
    def record_fanout(self, num_shards: int) -> None:
        with self._lock:
            self._fanout[num_shards] = self._fanout.get(num_shards, 0) + 1

    def record_shard_requests(self, shard_ids: Sequence[int]) -> None:
        with self._lock:
            for shard_id in shard_ids:
                self._per_shard[shard_id] = self._per_shard.get(shard_id, 0) + 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def fanout_histogram(self) -> Dict[int, int]:
        with self._lock:
            return dict(sorted(self._fanout.items()))

    def shard_requests(self) -> Dict[int, int]:
        with self._lock:
            return dict(sorted(self._per_shard.items()))

    def snapshot(self, include_histograms: bool = False) -> Dict[str, object]:
        """Unified-schema snapshot (``kind="cluster"``) with fan-out tables."""
        snap = super().snapshot(include_histograms=include_histograms)
        snap["kind"] = "cluster"
        snap["fanout"] = self.fanout_histogram()
        snap["shard_requests"] = self.shard_requests()
        return snap

    def render(
        self,
        shards: Optional[Sequence] = None,
        cache_stats=None,
        shard_cache_stats: Optional[Sequence] = None,
    ) -> str:
        """Cluster report: stages/counters, per-shard table, fan-out.

        Pass ``shard_cache_stats`` (one ``cache_stats()`` dict per shard,
        aligned with ``shards``) when the caller already collected them —
        for remote shards each collection is a STATS round trip, and the
        gateway's ``render_stats`` reuses one sweep for both views.
        """
        lines: List[str] = [super().render(cache_stats=cache_stats)]
        elapsed = max(perf_counter() - self._started_at, 1e-9)
        per_shard = self.shard_requests()
        if shards is not None:
            lines.append("  shards:")
            for index, shard in enumerate(shards):
                requests = per_shard.get(shard.shard_id, 0)
                # narrow shard surface: works for in-process PoolShards and
                # remote shard clients (a STATS round trip) alike
                tiers = (
                    shard_cache_stats[index]
                    if shard_cache_stats is not None
                    else shard.cache_stats()
                )
                stats = tiers["payload"]
                lines.append(
                    f"    shard[{shard.shard_id}]: tasks={len(shard.task_names())} "
                    f"requests={requests} qps={requests / elapsed:,.0f} "
                    f"payload_hit_rate={stats.hit_rate:.1%}"
                )
        fanout = self.fanout_histogram()
        if fanout:
            total = sum(fanout.values())
            parts = ", ".join(
                f"{shards_touched}:{count} ({count / total:.0%})"
                for shards_touched, count in fanout.items()
            )
            lines.append(f"  fan-out (shards touched per query): {parts}")
        return "\n".join(lines)
