"""repro.obs — request tracing and continuous telemetry.

Stdlib-only foundation layer: every other repro package may import from
here (serving metrics hook stage timings into the tracer, the net layer
stitches cross-process spans and ships journal events), and
:mod:`repro.obs` imports none of them back.

Point-in-time observability: :data:`TRACER` spans and the
JSONL/Prometheus exporters.  Continuous
telemetry: the :class:`TelemetryPoller` diffs unified snapshots
into windowed rate series (:mod:`~repro.obs.timeline`), the
:data:`JOURNAL` records the discrete events behind metric movement
(:mod:`~repro.obs.journal`), and the :class:`HealthScorer` turns both
into per-shard health states (:mod:`~repro.obs.health`) that the
``repro top`` dashboard renders (:mod:`~repro.obs.dashboard`).
"""

from .dashboard import CLEAR_SCREEN, render_dashboard, sparkline
from .export import (
    JsonlTraceWriter,
    RotatingJsonlWriter,
    SlowQueryLog,
    build_trace_tree,
    format_trace,
    load_jsonl_spans,
    parse_prometheus,
    render_prometheus,
    select_traces,
)
from .health import HealthPolicy, HealthScorer, estimate_breach_fraction
from .journal import JOURNAL, EventJournal
from .timeline import SeriesWindow, TelemetryPoller, TimelineStore, snapshot_rates
from .trace import TRACER, Span, SpanCollector, Tracer, new_id

__all__ = [
    "CLEAR_SCREEN",
    "render_dashboard",
    "sparkline",
    "JsonlTraceWriter",
    "RotatingJsonlWriter",
    "SlowQueryLog",
    "build_trace_tree",
    "format_trace",
    "load_jsonl_spans",
    "parse_prometheus",
    "render_prometheus",
    "select_traces",
    "HealthPolicy",
    "HealthScorer",
    "estimate_breach_fraction",
    "JOURNAL",
    "EventJournal",
    "SeriesWindow",
    "TelemetryPoller",
    "TimelineStore",
    "snapshot_rates",
    "TRACER",
    "Span",
    "SpanCollector",
    "Tracer",
    "new_id",
]
