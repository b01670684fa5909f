"""Continuous telemetry over a real 2-worker networked cluster.

The PR 7 acceptance path: a :class:`TelemetryPoller` pointed at a
:class:`NetworkedCluster` gateway must produce per-shard rate series
(each shard source answering through the STATS wire round trip) and pull
the workers' journal events — ``worker_start`` emitted at fork inside
the worker process — back into the front end's journal through the
``journal_since`` cursor in the STATS payload.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterConfig
from repro.net import NetworkedCluster
from repro.obs import EventJournal, HealthScorer, TelemetryPoller, render_dashboard

CONFIG = ClusterConfig(num_shards=2)


class TestNetworkedTelemetry:
    def test_poller_collects_series_events_and_health(self, net_pool):
        pool, data = net_pool
        journal = EventJournal()
        journal.enable(service="frontend")
        with NetworkedCluster(pool, CONFIG) as deployment:
            gateway = deployment.gateway
            task = sorted(gateway.available_tasks())[0]
            poller = TelemetryPoller.for_gateway(gateway, journal=journal)
            assert sorted(poller.sources) == ["cluster", "shard0", "shard1"]

            poller.poll_once()  # baseline
            gateway.serve((task,))
            gateway.predict(data.test.images[:2], (task,))
            produced = poller.poll_once()

            # every source is up and the traffic moved the cluster series
            for label in poller.sources:
                assert poller.store.last(f"{label}.up") == 1.0
            assert produced["cluster"]["qps"] > 0
            assert poller.store.last("cluster.stage.total.p95") > 0

            # the workers' fork-time journal events crossed the STATS wire
            kinds = [e["kind"] for e in journal.events()]
            assert kinds.count("worker_start") == 2
            services = {e["service"] for e in journal.events()}
            assert services == {"shard0", "shard1"}

            # polling again must not re-ingest the same worker events
            poller.poll_once()
            assert [e["kind"] for e in journal.events()].count("worker_start") == 2

            # the scorer and dashboard run off the same store end to end
            scorer = HealthScorer(poller.store, journal)
            verdicts = scorer.score_all()
            assert verdicts["shard0"]["state"] == "healthy"
            frame = render_dashboard(poller.store, scorer, journal)
            assert "worker_start" in frame and "shard1" in frame

    def test_dead_worker_scores_unreachable(self, net_pool):
        pool, _data = net_pool
        journal = EventJournal()
        journal.enable()
        with NetworkedCluster(pool, CONFIG) as deployment:
            gateway = deployment.gateway
            poller = TelemetryPoller.for_gateway(gateway, journal=journal)
            poller.poll_once()
            # sabotage one shard's source: the poller must mark it down
            # and keep scoring the rest
            def boom():
                raise ConnectionResetError("worker gone")

            poller.sources["shard1"] = boom
            poller.poll_once()
            scorer = HealthScorer(poller.store, journal)
            verdicts = scorer.score_all()
            assert verdicts["shard1"]["state"] == "unreachable"
            assert verdicts["shard0"]["state"] == "healthy"
            assert any(e["kind"] == "poll_error" for e in journal.events())

    def test_remote_stats_payload_carries_schema2_extras(self, net_pool):
        pool, data = net_pool
        with NetworkedCluster(pool, CONFIG) as deployment:
            gateway = deployment.gateway
            task = sorted(gateway.available_tasks())[0]
            gateway.predict(data.test.images[:2], (task,))
            remote = next(s for s in gateway.shards if s.is_remote())
            stats = remote.stats()
            assert stats["schema"] == 2
            assert "journal" in stats  # worker journal rides the STATS frame
            assert any(e["kind"] == "worker_start" for e in stats["journal"])
            # the worker that served the prediction tracks its popularity
            merged = gateway.unified_snapshot()
            assert task in merged.get("popularity", {})
            assert merged["popularity"][task]["count"] >= 1
