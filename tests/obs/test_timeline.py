"""Timeline: series rings, snapshot diffing, and the telemetry poller."""

from __future__ import annotations

import threading

import pytest

from repro.obs import (
    EventJournal,
    SeriesWindow,
    TelemetryPoller,
    TimelineStore,
    snapshot_rates,
)


def _snap(counters=None, stages=None, cache_stats=None, fanout=None, journal=None):
    snap = {
        "schema": 2,
        "kind": "serving",
        "counters": counters or {},
        "stages": stages or {},
    }
    if cache_stats is not None:
        snap["cache_stats"] = cache_stats
    if fanout is not None:
        snap["fanout"] = fanout
    if journal is not None:
        snap["journal"] = journal
    return snap


class FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestSeriesWindow:
    def test_capacity_evicts_oldest(self):
        window = SeriesWindow(capacity=3)
        for i in range(5):
            window.append(float(i), float(i * 10))
        assert window.values() == [20.0, 30.0, 40.0]
        assert window.last() == 40.0
        assert len(window) == 3

    def test_mean_and_span(self):
        window = SeriesWindow()
        assert window.mean() == 0.0 and window.span_s() == 0.0
        window.append(10.0, 2.0)
        assert window.span_s() == 0.0  # one point covers no time
        window.append(13.0, 4.0)
        assert window.mean() == pytest.approx(3.0)
        assert window.span_s() == pytest.approx(3.0)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            SeriesWindow(capacity=0)


class TestTimelineStore:
    def test_record_and_read_back(self):
        store = TimelineStore()
        store.record("shard0.qps", 1.0, 5.0)
        store.record_many(2.0, {"shard0.qps": 7.0, "shard1.qps": 3.0})
        assert store.values("shard0.qps") == [5.0, 7.0]
        assert store.last("shard1.qps") == 3.0
        assert store.last("absent") is None
        assert store.values("absent") == []
        assert len(store) == 2

    def test_names_filter_by_prefix(self):
        store = TimelineStore()
        store.record("shard0.qps", 0.0, 1.0)
        store.record("shard0.up", 0.0, 1.0)
        store.record("cluster.qps", 0.0, 1.0)
        assert store.names("shard0.") == ["shard0.qps", "shard0.up"]
        assert store.names() == ["cluster.qps", "shard0.qps", "shard0.up"]


class TestSnapshotRates:
    def test_counter_rates_and_qps(self):
        prev = _snap(counters={"requests": 10, "predictions": 4})
        curr = _snap(counters={"requests": 30, "predictions": 8, "errors": 2})
        rates = snapshot_rates(prev, curr, dt=2.0)
        assert rates["rate.requests"] == pytest.approx(10.0)
        assert rates["rate.predictions"] == pytest.approx(2.0)
        assert rates["rate.errors"] == pytest.approx(1.0)  # new counter: prev=0
        assert rates["qps"] == pytest.approx(12.0)

    def test_counter_regression_clamps_to_zero(self):
        # a restarted worker's counters legitimately go backwards
        prev = _snap(counters={"requests": 100})
        curr = _snap(counters={"requests": 5})
        assert snapshot_rates(prev, curr, dt=1.0)["rate.requests"] == 0.0

    def test_stage_gauges_track_key_stages_only(self):
        summary = {"count": 3, "mean": 0.002, "p50": 0.001, "p95": 0.004, "p99": 0.005, "max": 0.006}
        curr = _snap(stages={"total": summary, "serialize": summary})
        rates = snapshot_rates(_snap(), curr, dt=1.0)
        assert rates["stage.total.p95"] == pytest.approx(0.004)
        assert rates["stage.total.p99"] == pytest.approx(0.005)
        assert "stage.serialize.p95" not in rates

    def test_cache_hit_rate_from_deltas(self):
        prev = _snap(cache_stats={"model": {"hits": 10, "misses": 10}})
        curr = _snap(
            cache_stats={
                "model": {"hits": 19, "misses": 11},  # 9 hits / 10 lookups
                "result": {"hits": 0, "misses": 0},  # idle tier: no series
            }
        )
        rates = snapshot_rates(prev, curr, dt=1.0)
        assert rates["cache.model.hit_rate"] == pytest.approx(0.9)
        assert "cache.result.hit_rate" not in rates

    def test_fanout_mean_weights_interval_deltas(self):
        # 3 new single-shard requests + 1 new two-shard request
        prev = _snap(fanout={"1": 10, "2": 5})
        curr = _snap(fanout={"1": 13, "2": 6})
        rates = snapshot_rates(prev, curr, dt=1.0)
        assert rates["fanout.mean"] == pytest.approx((1 * 3 + 2 * 1) / 4)

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            snapshot_rates(_snap(), _snap(), dt=0.0)

    def test_controller_counters_always_get_a_series(self):
        # the self-tuning gauges are KEY_COUNTERS: a zero-rate series still
        # appears, so dashboards show "0/s" rather than a missing line
        rates = snapshot_rates(_snap(), _snap(), dt=1.0)
        for name in ("prefetch_builds", "prefetch_hits", "autotune_replications"):
            assert rates[f"rate.{name}"] == 0.0

    def test_score_evictions_series_only_after_hook_fires(self):
        prev = _snap(cache_stats={"payload": {"hits": 0, "misses": 0, "score_evictions": 0}})
        curr = _snap(cache_stats={"payload": {"hits": 0, "misses": 0, "score_evictions": 0}})
        rates = snapshot_rates(prev, curr, dt=1.0)
        assert "cache.payload.score_evictions" not in rates  # plain-LRU tier

        curr = _snap(cache_stats={"payload": {"hits": 0, "misses": 0, "score_evictions": 6}})
        rates = snapshot_rates(prev, curr, dt=2.0)
        assert rates["cache.payload.score_evictions"] == pytest.approx(3.0)

    def test_score_evictions_reset_clamps_to_zero(self):
        # a restarted shard's counter going backwards must not yield a
        # negative rate
        prev = _snap(cache_stats={"payload": {"hits": 0, "misses": 0, "score_evictions": 10}})
        curr = _snap(cache_stats={"payload": {"hits": 0, "misses": 0, "score_evictions": 2}})
        rates = snapshot_rates(prev, curr, dt=1.0)
        assert rates["cache.payload.score_evictions"] == 0.0


class TestTelemetryPoller:
    def test_first_poll_seeds_then_diffs(self):
        clock = FakeClock()
        counters = {"requests": 0}
        journal = EventJournal()
        journal.enable()
        poller = TelemetryPoller(
            {"serving": lambda: _snap(counters=dict(counters))},
            journal=journal,
            clock=clock,
        )
        assert poller.poll_once() == {}  # baseline only
        counters["requests"] = 6
        clock.advance(2.0)
        produced = poller.poll_once()
        assert produced["serving"]["rate.requests"] == pytest.approx(3.0)
        assert poller.store.values("serving.up") == [1.0, 1.0]
        assert poller.store.last("serving.qps") == pytest.approx(3.0)
        assert poller.polls == 2

    def test_failing_source_marks_down_and_journals(self):
        clock = FakeClock()
        journal = EventJournal()
        journal.enable()
        healthy = True

        def source():
            if not healthy:
                raise ConnectionRefusedError("gone")
            return _snap(counters={"requests": 1})

        poller = TelemetryPoller({"shard0": source}, journal=journal, clock=clock)
        poller.poll_once()
        healthy = False
        clock.advance(1.0)
        poller.poll_once()
        assert poller.store.values("shard0.up") == [1.0, 0.0]
        assert poller.poll_errors == 1
        [event] = journal.events()
        assert event["kind"] == "poll_error" and event["source"] == "shard0"
        assert "ConnectionRefusedError" in event["error"]
        # recovery re-seeds the baseline instead of diffing across the gap
        healthy = True
        clock.advance(1.0)
        assert poller.poll_once() == {}

    def test_remote_journal_ships_each_event_once(self):
        clock = FakeClock()
        journal = EventJournal()
        journal.enable()
        remote = [
            {"seq": 1, "service": "shard1", "kind": "worker_start"},
            {"seq": 2, "service": "shard1", "kind": "cache_evict"},
        ]
        poller = TelemetryPoller(
            {"shard1": lambda: _snap(journal=list(remote))},
            journal=journal,
            clock=clock,
        )
        poller.poll_once()
        clock.advance(1.0)
        poller.poll_once()  # same STATS payload again: cursor filters it
        assert len(journal) == 2
        remote.append({"seq": 3, "service": "shard1", "kind": "worker_drain"})
        clock.advance(1.0)
        poller.poll_once()
        assert [e["kind"] for e in journal.events()] == [
            "worker_start",
            "cache_evict",
            "worker_drain",
        ]

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            TelemetryPoller({}, interval_s=0.0)

    def test_zero_elapsed_poll_is_a_safe_noop(self):
        # two sweeps inside one clock tick: dt == 0 must neither divide by
        # zero nor fabricate rates — the baseline just refreshes
        clock = FakeClock()
        journal = EventJournal()
        journal.enable()
        counters = {"requests": 0}
        poller = TelemetryPoller(
            {"serving": lambda: _snap(counters=dict(counters))},
            journal=journal,
            clock=clock,
        )
        poller.poll_once()
        counters["requests"] = 100
        assert poller.poll_once() == {}  # same instant: no diff window
        assert poller.poll_errors == 0
        assert poller.store.values("serving.up") == [1.0, 1.0]
        # once time moves, the refreshed baseline diffs normally
        counters["requests"] = 150
        clock.advance(1.0)
        produced = poller.poll_once()
        assert produced["serving"]["rate.requests"] == pytest.approx(50.0)

    def test_background_thread_polls_and_stops(self):
        polled = threading.Event()
        poller = TelemetryPoller(
            {"serving": lambda: (polled.set(), _snap())[1]},
            interval_s=0.01,
            journal=EventJournal(),
        )
        with poller:
            assert polled.wait(timeout=5.0), "the poller thread never polled"
        assert poller._thread is None


class TestForGateway:
    def test_cluster_with_remote_and_local_shards(self):
        class RemoteShard:
            shard_id = 1
            is_remote = True

            def stats(self):
                return _snap(counters={"requests": 1})

        class LocalMetrics:
            def snapshot(self, include_histograms=False):
                return _snap(counters={"requests": 2})

        class LocalGateway:
            metrics = LocalMetrics()

        class LocalShard:
            shard_id = 0
            is_remote = False
            gateway = LocalGateway()

            def cache_stats(self):
                return {"model": {"hits": 1, "misses": 0}}

        class Cluster:
            shards = [LocalShard(), RemoteShard()]

            def unified_snapshot(self):
                return _snap(counters={"requests": 3})

        poller = TelemetryPoller.for_gateway(Cluster(), journal=EventJournal())
        assert sorted(poller.sources) == ["cluster", "shard0", "shard1"]
        poller.poll_once()
        assert poller.store.last("shard0.up") == 1.0
        assert poller.store.last("shard1.up") == 1.0
        assert poller.store.last("cluster.up") == 1.0

    def test_bare_serving_gateway_becomes_one_source(self):
        class Metrics:
            def snapshot(self, include_histograms=False):
                return _snap(counters={"requests": 1})

        class Gateway:
            metrics = Metrics()

            def cache_stats(self):
                return {"result": {"hits": 3, "misses": 1}}

        poller = TelemetryPoller.for_gateway(Gateway(), journal=EventJournal())
        assert list(poller.sources) == ["serving"]
        snap = poller.sources["serving"]()
        assert snap["cache_stats"]["result"]["hits"] == 3

    def test_unrecognized_object_rejected(self):
        with pytest.raises(TypeError, match="telemetry sources"):
            TelemetryPoller.for_gateway(object())
