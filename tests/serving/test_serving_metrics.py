"""Latency histograms, percentile math, and the metrics facade."""

import math

import pytest

from repro.serving import (
    DOCUMENTED_STAGES,
    SNAPSHOT_SCHEMA,
    LatencyHistogram,
    ServingMetrics,
    merge_snapshots,
    percentile,
)


class TestPercentile:
    def test_median_of_odd_set(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_interpolates(self):
        assert percentile([0.0, 1.0], 50) == pytest.approx(0.5)

    def test_extremes(self):
        xs = [5.0, 1.0, 9.0]
        assert percentile(xs, 0) == 1.0
        assert percentile(xs, 100) == 9.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestLatencyHistogram:
    def test_summary_fields(self):
        hist = LatencyHistogram()
        for ms in (1, 2, 3, 4, 5):
            hist.record(ms / 1e3)
        summary = hist.summary()
        assert summary["count"] == 5
        assert summary["mean"] == pytest.approx(3e-3)
        assert summary["p50"] == pytest.approx(3e-3)
        assert summary["max"] == pytest.approx(5e-3)

    def test_empty_summary_is_zeroed(self):
        assert LatencyHistogram().summary() == {
            "count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0,
        }

    def test_buckets_are_log_spaced(self):
        hist = LatencyHistogram()
        hist.record(1.5e-6)
        hist.record(3e-3)
        hist.record(3e-3)
        buckets = dict(hist.buckets())
        assert sum(buckets.values()) == 3
        assert all(upper > 0 for upper in buckets)

    def test_reservoir_bounded(self):
        hist = LatencyHistogram(max_samples=100)
        for i in range(1000):
            hist.record(i / 1e6)
        assert hist.count == 1000
        assert len(hist._samples) == 100
        # quantiles stay in the observed range
        assert 0.0 <= hist.quantile(50) <= 1e-3

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram().record(-1.0)

    def test_bucket_boundaries_are_powers_of_two(self):
        """Values at/around the 1 µs cutoff and a bucket edge land predictably."""
        hist = LatencyHistogram()
        hist.record(0.0)  # below the 1 µs floor -> first bucket
        hist.record(0.99e-6)
        hist.record(1e-6)  # exactly the floor -> second bucket
        hist.record(1e9)  # absurd value clamps to the last bucket
        buckets = dict(hist.buckets())
        assert buckets[1e-6] == 2
        assert sum(buckets.values()) == 4
        # the clamp bucket is the 2**26 µs one
        assert max(buckets) == pytest.approx(1e-6 * 2 ** 26)

    def test_reservoir_overflow_keeps_quantiles_representative(self):
        hist = LatencyHistogram(max_samples=64)
        for i in range(10_000):
            hist.record(i / 1e6)
        assert hist.count == 10_000
        assert len(hist._samples) == 64
        # p50 of uniform 0..10ms should land mid-range, not at an extreme
        assert 2e-3 < hist.quantile(50) < 8e-3

    def test_zero_sample_histogram_is_safe_everywhere(self):
        hist = LatencyHistogram()
        assert hist.quantile(99) == 0.0
        assert hist.buckets() == []
        assert hist.summary()["count"] == 0
        wire = hist.to_dict()
        assert wire["min"] == 0.0  # inf would not survive JSON
        rebuilt = LatencyHistogram.from_dict(wire)
        assert rebuilt.count == 0
        assert math.isinf(rebuilt._min)

    def test_merge_is_exact_for_buckets_and_counts(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        for ms in (1, 2, 3):
            a.record(ms / 1e3)
        for ms in (4, 5):
            b.record(ms / 1e3)
        a.merge(b)
        assert a.count == 5
        assert a.mean == pytest.approx(3e-3)
        assert a.summary()["max"] == pytest.approx(5e-3)
        assert sum(n for _, n in a.buckets()) == 5
        # merging an empty histogram is a no-op
        before = a.summary()
        a.merge(LatencyHistogram())
        assert a.summary() == before

    def test_merge_downsamples_oversized_reservoirs(self):
        a, b = LatencyHistogram(max_samples=32), LatencyHistogram(max_samples=32)
        for i in range(100):
            a.record(i / 1e6)
            b.record((100 + i) / 1e6)
        a.merge(b)
        assert len(a._samples) == 32
        assert a.count == 200
        # the merged reservoir spans both sides
        assert min(a._samples) < 50e-6 < 150e-6 < max(a._samples)

    def test_to_dict_round_trip(self):
        hist = LatencyHistogram()
        for ms in (1, 5, 9):
            hist.record(ms / 1e3)
        rebuilt = LatencyHistogram.from_dict(hist.to_dict())
        assert rebuilt.summary() == hist.summary()
        assert rebuilt.buckets() == hist.buckets()


class TestServingMetrics:
    def test_observe_and_summary(self):
        metrics = ServingMetrics()
        metrics.observe("serialize", 0.010)
        metrics.observe("serialize", 0.020)
        summary = metrics.stage_summary("serialize")
        assert summary["count"] == 2
        assert summary["p50"] == pytest.approx(0.015)
        assert metrics.stage_summary("unknown") is None

    def test_stage_context_manager_times(self):
        metrics = ServingMetrics()
        with metrics.stage("consolidate"):
            pass
        summary = metrics.stage_summary("consolidate")
        assert summary["count"] == 1
        assert summary["max"] < 1.0

    def test_counters(self):
        metrics = ServingMetrics()
        metrics.increment("requests")
        metrics.increment("requests", by=4)
        assert metrics.counter("requests") == 5
        assert metrics.counter("absent") == 0

    def test_snapshot_follows_unified_schema(self):
        metrics = ServingMetrics()
        metrics.observe("total", 0.001)
        metrics.increment("requests")
        snap = metrics.snapshot()
        assert set(snap) == {"schema", "kind", "stages", "counters"}
        assert snap["schema"] == SNAPSHOT_SCHEMA
        assert snap["kind"] == "serving"
        assert "total" in snap["stages"]
        assert snap["counters"]["requests"] == 1

    def test_snapshot_histograms_opt_in(self):
        metrics = ServingMetrics()
        metrics.observe("total", 0.001)
        snap = metrics.snapshot(include_histograms=True)
        assert snap["histograms"]["total"]["count"] == 1
        assert "histograms" not in metrics.snapshot()

    def test_documented_stages_is_the_ci_contract(self):
        # the scrape smoke in CI asserts each of these appears; keep the
        # tuple stable (additions fine, removals are a schema break)
        for stage in ("queue", "total", "predict_total", "fetch", "serialize"):
            assert stage in DOCUMENTED_STAGES

    def test_render_mentions_percentiles(self):
        metrics = ServingMetrics()
        metrics.observe("total", 0.002)
        text = metrics.render()
        for token in ("p50", "p95", "p99", "total"):
            assert token in text


class TestMergeSnapshots:
    def _metrics(self, values):
        metrics = ServingMetrics()
        for v in values:
            metrics.observe("total", v)
            metrics.increment("requests")
        return metrics

    def test_histogram_backed_merge_is_exact(self):
        a = self._metrics([0.001, 0.002])
        b = self._metrics([0.003, 0.004])
        merged = merge_snapshots(
            [a.snapshot(include_histograms=True), b.snapshot(include_histograms=True)]
        )
        total = merged["stages"]["total"]
        assert total["count"] == 4
        assert total["mean"] == pytest.approx(2.5e-3)
        assert "approx" not in total
        assert merged["counters"]["requests"] == 4
        assert merged["kind"] == "serving"

    def test_summary_only_merge_is_marked_approximate(self):
        a = self._metrics([0.001, 0.002])
        b = self._metrics([0.003, 0.004])
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        total = merged["stages"]["total"]
        assert total["count"] == 4
        assert total["approx"] is True
        assert total["max"] == pytest.approx(4e-3)

    def test_merge_re_keys_json_stringified_fanout(self):
        # a JSON round trip (the STATS wire frame) stringifies dict keys
        a = {"kind": "cluster", "counters": {}, "stages": {}, "fanout": {"1": 3}}
        b = {"kind": "cluster", "counters": {}, "stages": {}, "fanout": {1: 2, 2: 1}}
        merged = merge_snapshots([a, b])
        assert merged["fanout"] == {1: 5, 2: 1}
        assert merged["kind"] == "cluster"

    def test_merge_ignores_unknown_keys(self):
        snap = self._metrics([0.001]).snapshot()
        snap["future_field"] = {"x": 1}
        merged = merge_snapshots([snap])
        assert "future_field" not in merged

    def test_mixed_histogram_and_summary_contributors_fold_with_approx(self):
        """One peer ships histograms, one only summaries: the merged stage
        keeps exact counts/means but flags its quantiles approximate."""
        a = self._metrics([0.001, 0.002])
        b = self._metrics([0.003, 0.004])
        merged = merge_snapshots([a.snapshot(include_histograms=True), b.snapshot()])
        total = merged["stages"]["total"]
        assert total["count"] == 4
        assert total["mean"] == pytest.approx(2.5e-3)
        assert total["max"] == pytest.approx(4e-3)
        assert total["approx"] is True

    def test_approx_flag_survives_a_refold(self):
        """Merging a merged snapshot (frontend re-merging shard merges)
        must not launder an approximate quantile back to exact."""
        a = self._metrics([0.001, 0.002])
        b = self._metrics([0.003, 0.004])
        once = merge_snapshots([a.snapshot(include_histograms=True), b.snapshot()])
        c = self._metrics([0.005]).snapshot(include_histograms=True)
        twice = merge_snapshots([once, c])
        total = twice["stages"]["total"]
        assert total["count"] == 5
        assert total["approx"] is True

    def test_schema1_and_schema2_snapshots_merge(self):
        """An old schema-1 peer (no health) merges cleanly with a schema-2
        snapshot; the addition survives untouched, and a peer's retired
        popularity table is ignored like any unknown key."""
        old = {
            "schema": 1,
            "kind": "serving",
            "stages": {"total": {"count": 2, "mean": 0.002, "p50": 0.002,
                                 "p95": 0.003, "p99": 0.003, "max": 0.003}},
            "counters": {"requests": 2},
        }
        new = self._metrics([0.001]).snapshot()
        new["popularity"] = {"taskA": {"score": 1.5, "count": 3}}
        new["health"] = {"shard0": {"state": "healthy"}}
        merged = merge_snapshots([old, new])
        assert merged["schema"] == SNAPSHOT_SCHEMA
        assert merged["counters"]["requests"] == 3
        assert merged["stages"]["total"]["approx"] is True  # neither had hists
        assert "popularity" not in merged
        assert merged["health"] == {"shard0": {"state": "healthy"}}

    def test_health_tables_union(self):
        a = {"kind": "serving", "stages": {}, "counters": {},
             "health": {"shard0": {"state": "healthy"}}}
        b = {"kind": "serving", "stages": {}, "counters": {},
             "health": {"shard1": {"state": "degraded"}}}
        merged = merge_snapshots([a, b])
        assert merged["health"] == {
            "shard0": {"state": "healthy"},
            "shard1": {"state": "degraded"},
        }
