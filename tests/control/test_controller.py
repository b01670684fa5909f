"""CacheController behaviour, driven entirely through the sim harness.

Every test steps the control loop synchronously on a fake clock — no
sleeps, no background threads, no wall-time dependence — so outcomes are
bit-for-bit reproducible across machines and runs.
"""

import pytest

from repro.control import CacheController, ControllerConfig, CostEWMA
from repro.obs.journal import JOURNAL
from repro.serving.canonical import payload_key


def _key(sim, names):
    """The payload-tier key ``names`` is looked up under right now."""
    return payload_key(names, "float32", sim.gateway.pool.versions(names))
from repro.serving.gateway import GatewayConfig

from .sim import FakeClock, SimHarness


HOT = ("c0", "c1")


@pytest.fixture()
def sim(control_pool):
    with SimHarness(control_pool) as harness:
        yield harness


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ControllerConfig(popularity_halflife_s=0)
        with pytest.raises(ValueError):
            ControllerConfig(cost_smoothing=0.0)
        with pytest.raises(ValueError):
            ControllerConfig(prefetch_limit=-1)
        with pytest.raises(ValueError):
            ControllerConfig(replicate_max_copies=0)
        with pytest.raises(ValueError):
            ControllerConfig(replicate_cooldown_s=-1)

    def test_cost_ewma_cold_keys_fall_back_to_fleet_typical(self):
        costs = CostEWMA(alpha=0.5)
        assert costs.seconds("never") == 0.0
        costs.observe("a", 2.0, 100)
        # a never-seen key is scored with the fleet-typical cost, not zero
        assert costs.seconds("unseen") == pytest.approx(2.0)
        costs.observe("a", 4.0, 200)
        assert costs.seconds("a") == pytest.approx(3.0)
        assert costs.nbytes("a") == pytest.approx(150.0)
        assert len(costs) == 1


class TestWiring:
    def test_attach_installs_score_hooks(self, sim):
        gw = sim.gateway
        assert gw.controller is sim.controller
        assert gw.payload_cache.evict_score is not None
        assert gw.model_cache.evict_score is not None
        assert gw.result_cache.evict_score is not None

    def test_requests_feed_popularity_and_costs(self, sim):
        sim.serve(HOT)
        sim.serve(HOT)
        snap = sim.controller.snapshot()
        assert snap["tracked_queries"] == 1
        assert snap["tracked_tasks"] == 2
        assert snap["build_costs"] == 1
        assert sim.controller.hot_queries(1)[0][0] == HOT
        assert sim.controller.composite_score(HOT) > 0.0


class TestEvictionBias:
    def test_hot_composite_survives_cold_pollution(self, control_pool):
        # size the budget to barely fit two hot payload entries, by what
        # the tier charges one (its container head; the segments are shared)
        with SimHarness(control_pool) as probe:
            probe.serve(HOT)
            entry_bytes = probe.payload_stats().current_bytes
        config = GatewayConfig(max_workers=1, payload_cache_bytes=2 * entry_bytes)
        with SimHarness(control_pool, gateway_config=config) as sim:
            for _ in range(10):
                sim.serve(HOT)
            # one-off cold queries would evict the hot payload under LRU
            for cold in (("c2",), ("c3",), ("c2", "c3"), ("c0", "c3")):
                sim.serve(cold)
            key = _key(sim, HOT)
            assert sim.gateway.payload_cache.contains(key)
            stats = sim.payload_stats()
            assert stats.rejections + stats.score_evictions > 0
            assert sim.serve(HOT).payload_cache_hit

    def test_unrequested_entries_score_zero(self, sim):
        sim.serve(HOT)
        assert sim.controller.composite_score(("c2", "c3")) == 0.0


class TestBuildCost:
    """The recorded rebuild price leaves out one-off segment encodes.

    A scripted clock that only moves while a segment is being encoded
    (one second each) stands in for ``perf_counter``: whatever a build
    records beyond zero is encode time it failed to leave out.
    """

    @pytest.fixture()
    def encode_clock(self, monkeypatch):
        import repro.core.server as core_server

        clock = FakeClock()
        real_encode = core_server._encode_segment

        def slow_encode(state, quantize):
            clock.advance(1.0)
            return real_encode(state, quantize)

        monkeypatch.setattr(core_server, "_encode_segment", slow_encode)
        for module in ("repro.core.server", "repro.serving.gateway", "repro.cluster.gateway"):
            monkeypatch.setattr(f"{module}.perf_counter", clock)
        return clock

    def test_first_build_records_no_encode_time(self, control_pool, encode_clock):
        pool = control_pool.subset(HOT)  # a view owns a fresh, empty store
        with SimHarness(pool) as sim:
            sim.serve(HOT)
            assert pool.segments.encode_seconds == encode_clock.now == 3.0
            assert sim.controller.snapshot()["build_costs"] == 1
            assert sim.controller._build.seconds(HOT) == 0.0

    def test_cluster_build_leaves_out_its_own_encodes(self, control_pool, encode_clock):
        from repro.cluster.gateway import ClusterConfig, ClusterGateway

        pool = control_pool.subset(sorted(control_pool.expert_names()))
        controller = CacheController(ControllerConfig(), clock=FakeClock())
        gateway = ClusterGateway(pool, ClusterConfig(num_shards=2), controller=controller)
        try:
            pair = next(
                (a, b)
                for a in sorted(pool.expert_names())
                for b in sorted(pool.expert_names())
                if a < b and len(gateway._plan((a, b))) == 2
            )
            gateway.serve(pair)
            # library + two heads at the front end; what is left is the
            # shard-side encode of the fetched head, which arrives as
            # fetch latency and is not this store's to subtract
            assert pool.segments.encode_seconds == 3.0
            assert controller._build.seconds(pair) == encode_clock.now - 3.0 == 1.0
        finally:
            gateway.close()


class TestPrefetch:
    def test_tick_rebuilds_discarded_hot_payload(self, sim):
        for _ in range(5):
            sim.serve(HOT)
        key = _key(sim, HOT)
        # simulate an invalidation (e.g. a version bump dropping payloads)
        assert sim.gateway.payload_cache.discard(key)
        report = sim.tick()
        assert report.prefetched == (HOT,)
        assert report.acted
        assert sim.gateway.payload_cache.contains(key)
        assert sim.controller.was_prefetched(key)
        assert sim.counter("prefetch_builds") == 1
        response = sim.serve(HOT)
        assert response.payload_cache_hit
        assert sim.counter("prefetch_hits") == 1

    def test_resident_payloads_are_not_rebuilt(self, sim):
        for _ in range(5):
            sim.serve(HOT)
        report = sim.tick()
        assert report.prefetched == ()
        assert sim.counter("prefetch_builds") == 0

    def test_prefetch_limit_zero_disables_prefetch(self, control_pool):
        config = ControllerConfig(popularity_halflife_s=2.5, prefetch_limit=0)
        with SimHarness(control_pool, controller_config=config) as sim:
            for _ in range(5):
                sim.serve(HOT)
            sim.gateway.payload_cache.discard(_key(sim, HOT))
            assert sim.tick().prefetched == ()

    def test_cold_queries_never_prefetched(self, sim):
        sim.serve(("c2", "c3"))  # one hit, then idle past many half-lives
        sim.gateway.payload_cache.discard(_key(sim, ("c2", "c3")))
        sim.clock.advance(60.0)
        assert sim.tick().prefetched == ()

    def test_tick_without_signals_is_a_noop(self, sim):
        report = sim.tick()
        assert not report.acted
        assert report.mean_fanout == 0.0


class TestDecay:
    def test_long_idle_decays_popularity(self, sim):
        for _ in range(8):
            sim.serve(HOT)
        before = sim.controller.composite_score(HOT)
        sim.clock.advance(100 * sim.controller.config.popularity_halflife_s)
        after = sim.controller.composite_score(HOT)
        assert before > 0.0
        assert after < before * 1e-9

    def test_rotation_shifts_hot_ranking(self, sim):
        for _ in range(6):
            sim.serve(HOT)
        sim.clock.advance(10.0)  # four half-lives
        for _ in range(6):
            sim.serve(("c2", "c3"))
        assert sim.controller.hot_queries(1)[0][0] == ("c2", "c3")


class TestJournal:
    def test_acting_tick_emits_autotune_event(self, sim):
        JOURNAL.reset()
        JOURNAL.enable(service="test")
        try:
            for _ in range(5):
                sim.serve(HOT)
            sim.gateway.payload_cache.discard(_key(sim, HOT))
            sim.tick()
            kinds = [e["kind"] for e in JOURNAL.events()]
            assert "autotune" in kinds
            event = [e for e in JOURNAL.events() if e["kind"] == "autotune"][-1]
            assert event["prefetched"] == [list(HOT)]
        finally:
            JOURNAL.disable()
            JOURNAL.reset()

    def test_quiet_tick_emits_nothing(self, sim):
        JOURNAL.reset()
        JOURNAL.enable(service="test")
        try:
            sim.tick()
            assert "autotune" not in [e["kind"] for e in JOURNAL.events()]
        finally:
            JOURNAL.disable()
            JOURNAL.reset()


class TestDeterminism:
    def _run_once(self, pool):
        trace = [(HOT, "float32"), (("c2", "c3"), "float32")] * 30 + [
            (("c0", "c2"), "float32"),
            (("c1", "c3"), "float32"),
        ]
        with SimHarness(pool) as sim:
            reports = sim.run(trace, tick_every=10)
            stats = sim.payload_stats()
            snap = sim.controller.snapshot()
        return reports, stats, snap

    def test_identical_runs_produce_identical_decisions(self, control_pool):
        first = self._run_once(control_pool)
        second = self._run_once(control_pool)
        assert first[0] == second[0]  # every TickReport identical
        assert first[1] == second[1]  # cache stats identical
        assert first[2] == second[2]  # controller gauges identical


class TestTelemetry:
    def test_polls_surface_controller_series(self, sim):
        sim.poll()  # baseline
        for _ in range(5):
            sim.serve(HOT)
        sim.gateway.payload_cache.discard(_key(sim, HOT))
        sim.tick()
        sim.serve(HOT)  # a prefetch hit
        produced = sim.poll()
        rates = produced["serving"]
        assert rates["rate.prefetch_builds"] > 0
        assert rates["rate.prefetch_hits"] > 0
        assert sim.poller.store.last("serving.up") == 1.0


class TestReplication:
    """Fan-out feedback → hot-expert self-replication, on 2 in-process shards."""

    DT = 0.05

    @pytest.fixture()
    def cluster(self, control_pool):
        from repro.cluster.gateway import ClusterConfig, ClusterGateway

        clock = FakeClock()
        controller = CacheController(
            ControllerConfig(popularity_halflife_s=2.5), clock=clock
        )
        gateway = ClusterGateway(
            control_pool,
            ClusterConfig(num_shards=2),
            controller=controller,
        )
        try:
            yield gateway, controller, clock
        finally:
            gateway.close()

    def _cross_shard_pair(self, cluster):
        names = sorted(cluster.pool.expert_names())
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                if not set(cluster.router.shards_for(a)) & set(
                    cluster.router.shards_for(b)
                ):
                    return (a, b)
        pytest.fail("no cross-shard pair in placement")

    def _drive(self, gateway, clock, pair, n):
        for _ in range(n):
            clock.advance(self.DT)
            gateway.serve(pair)

    def test_predicts_feed_query_popularity(self, cluster, micro_pool):
        """Every predict entry point tells the controller what was asked."""
        gateway, controller, _clock = cluster
        images = micro_pool[1].test.images[:4]
        single = (sorted(gateway.pool.expert_names())[0],)
        pair = self._cross_shard_pair(gateway)
        assert controller.snapshot()["tracked_queries"] == 0
        gateway.predict(images, single)
        assert controller.snapshot()["tracked_queries"] == 1
        gateway.predict(images, pair)
        assert controller.snapshot()["tracked_queries"] == 2

        def counts():
            tracked = controller._queries.snapshot()
            return [tracked[query]["count"] for query in (single, pair)]

        assert counts() == [1, 1]
        for query in (single, pair):
            gateway.submit_predict(images, query).result(timeout=30)
        assert counts() == [2, 2]

    def test_sustained_fanout_replicates_hottest_task(self, cluster):
        gateway, controller, clock = cluster
        pair = self._cross_shard_pair(gateway)
        self._drive(gateway, clock, pair, 6)
        report = controller.tick()
        assert len(report.replicated) == 1
        task, copies = report.replicated[0]
        assert task in pair and copies == 2
        assert gateway.router.replication_for(task) == 2
        assert len(gateway.router.shards_for(task)) == 2
        assert report.mean_fanout == pytest.approx(2.0)
        assert gateway.metrics.counter("autotune_replications") == 1
        # the pair is now co-resident: the next request fans out to 1 shard
        before = dict(gateway.metrics.fanout_histogram())
        self._drive(gateway, clock, pair, 1)
        after = gateway.metrics.fanout_histogram()
        assert after.get(1, 0) == before.get(1, 0) + 1

    def test_cooldown_limits_replication_rate(self, cluster):
        gateway, controller, clock = cluster
        first = self._cross_shard_pair(gateway)
        self._drive(gateway, clock, first, 6)
        assert controller.tick().replicated
        second = self._cross_shard_pair(gateway)
        self._drive(gateway, clock, second, 6)
        # still inside replicate_cooldown_s: fan-out is high, but no action
        assert controller.tick().replicated == ()
        clock.advance(controller.config.replicate_cooldown_s + 1.0)
        self._drive(gateway, clock, second, 6)
        assert controller.tick().replicated
        assert gateway.metrics.counter("autotune_replications") == 2

    def test_low_fanout_never_replicates(self, cluster):
        gateway, controller, clock = cluster
        names = sorted(gateway.pool.expert_names())
        single = (names[0],)
        self._drive(gateway, clock, single, 6)
        report = controller.tick()
        assert report.replicated == ()
        assert report.mean_fanout == pytest.approx(1.0)


class TestLifecycle:
    def test_start_stop_without_sleeping(self, sim):
        sim.controller.start(interval_s=3600.0)
        assert sim.controller._thread is not None
        sim.controller.start()  # idempotent while running
        sim.controller.stop()
        assert sim.controller._thread is None
        sim.controller.stop()  # idempotent once stopped

    def test_start_rejects_bad_interval(self, sim):
        with pytest.raises(ValueError):
            sim.controller.start(interval_s=0)

    def test_context_manager_stops_loop(self, control_pool):
        clock = FakeClock()
        with CacheController(clock=clock) as controller:
            controller.start(interval_s=3600.0)
        assert controller._thread is None
