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
* :mod:`~repro.serving.loadgen` — Zipfian workload generation plus
  closed-loop and open-loop load drivers.
* :mod:`~repro.serving.demo` — a self-contained micro pool so benchmarks
  and demos run without prebuilt artifacts.

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
from .loadgen import LoadReport, ZipfianWorkload, run_closed_loop, run_open_loop
from .metrics import (
    DOCUMENTED_STAGES,
    SNAPSHOT_SCHEMA,
    LatencyHistogram,
    PopularityEWMA,
    ServingMetrics,
    merge_snapshots,
    percentile,
)
from .predict_bench import (
    append_benchmark_record,
    predict_report_rows,
    run_metadata,
    run_predict_benchmark,
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
    "ZipfianWorkload",
    "LoadReport",
    "run_closed_loop",
    "run_open_loop",
    "LatencyHistogram",
    "PopularityEWMA",
    "ServingMetrics",
    "percentile",
    "merge_snapshots",
    "SNAPSHOT_SCHEMA",
    "DOCUMENTED_STAGES",
    "build_demo_pool",
    "run_predict_benchmark",
    "append_benchmark_record",
    "predict_report_rows",
    "run_metadata",
]
