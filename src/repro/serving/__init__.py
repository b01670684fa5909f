"""repro.serving — the realtime serving gateway (pool → gateway → client).

The paper's service phase is train-free, so a single query costs
microseconds; this package makes that hold *under concurrent traffic*:

* :mod:`~repro.serving.canonical` — one canonical query identity shared by
  every cache layer (sorted, deduplicated task names).
* :mod:`~repro.serving.cache` — byte-budgeted LRU tiers with eviction
  stats for consolidated models and serialized payloads.
* :mod:`~repro.serving.gateway` — :class:`ServingGateway`: request
  coalescing (single flight), cache tiers, worker-pool dispatch.
* :mod:`~repro.serving.metrics` — per-stage latency histograms with
  p50/p95/p99 summaries and cache hit-rate reporting.
* :mod:`~repro.serving.demo` — a self-contained micro pool so the
  request-path harness, the examples and the CLI demos run without
  prebuilt artifacts.

:class:`ServingGateway` is the service API: :meth:`~ServingGateway.serve`
ships a model's payload, :meth:`~ServingGateway.get_model` hands out the
consolidated :class:`~repro.core.query.TaskSpecificModel`, and
:meth:`~ServingGateway.predict` runs it.
"""

from .cache import ByteBudgetLRU, CacheStats, merge_cache_stats
from .canonical import canonical_tasks, model_key, payload_key
from .demo import build_demo_pool
from .gateway import (
    GatewayConfig,
    GatewayResponse,
    PredictionResponse,
    ServingGateway,
    SingleFlight,
)
from .metrics import (
    DOCUMENTED_STAGES,
    SNAPSHOT_SCHEMA,
    LatencyHistogram,
    PopularityEWMA,
    ServingMetrics,
    merge_snapshots,
    percentile,
)

__all__ = [
    "ByteBudgetLRU",
    "CacheStats",
    "merge_cache_stats",
    "canonical_tasks",
    "model_key",
    "payload_key",
    "GatewayConfig",
    "GatewayResponse",
    "PredictionResponse",
    "ServingGateway",
    "SingleFlight",
    "LatencyHistogram",
    "PopularityEWMA",
    "ServingMetrics",
    "percentile",
    "merge_snapshots",
    "SNAPSHOT_SCHEMA",
    "DOCUMENTED_STAGES",
    "build_demo_pool",
]
