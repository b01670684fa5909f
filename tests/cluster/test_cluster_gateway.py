"""ClusterGateway: routing, cross-shard consolidation, rebalance, invalidation."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ClusterGateway, ShardRouter
from repro.core import deserialize_task_model
from repro.distill import batched_forward


def _make(pool, **overrides):
    defaults = dict(num_shards=4)
    defaults.update(overrides)
    return ClusterGateway(pool, ClusterConfig(**defaults))


def _cross_shard_query(cluster, size=2):
    """A query whose primaries span ``size`` distinct shards."""
    names = sorted(cluster.available_tasks())
    picked = [names[0]]
    shards = {cluster.shards_of(names[0])[0]}
    for name in names[1:]:
        if cluster.shards_of(name)[0] not in shards:
            picked.append(name)
            shards.add(cluster.shards_of(name)[0])
        if len(picked) == size:
            break
    assert len(picked) == size, "hierarchy too small to span shards"
    return tuple(picked)


@pytest.fixture()
def cluster(wide_pool):
    pool, _ = wide_pool
    gw = _make(pool)
    yield gw
    gw.close()


class TestServe:
    def test_every_task_is_placed(self, cluster, wide_pool):
        pool, _ = wide_pool
        assert cluster.available_tasks() == tuple(sorted(pool.expert_names()))
        held = set()
        for shard in cluster.shards:
            held.update(shard.task_names())
        assert held == set(pool.expert_names())

    def test_cross_shard_prediction_bit_identical_to_single_pool(
        self, cluster, wide_pool
    ):
        pool, data = wide_pool
        query = _cross_shard_query(cluster)
        response = cluster.serve(query)
        assert cluster.metrics.counter("cross_shard") == 1
        rebuilt = deserialize_task_model(response.payload)
        network, _ = pool.consolidate(list(query))
        x = data.test.images[:24]
        assert np.array_equal(rebuilt.logits(x), batched_forward(network, x))
        from tests.conftest import assert_fused_ids_match

        # predict() runs the fused path: allclose to the loop, tie-tolerant
        assert_fused_ids_match(
            rebuilt.predict(x), batched_forward(network, x), rebuilt.task.classes
        )

    def test_single_shard_queries_use_fast_path(self, cluster):
        name = cluster.available_tasks()[0]
        cluster.serve([name])
        assert cluster.metrics.counter("cross_shard") == 0
        assert cluster.metrics.fanout_histogram() == {1: 1}
        shard_id = cluster.shards_of(name)[0]
        assert cluster.shards[shard_id].gateway.metrics.counter("requests") == 1

    def test_permuted_cross_shard_queries_share_payload(self, cluster):
        query = _cross_shard_query(cluster)
        cluster.serve(query)  # first sighting: remembered, not kept
        first = cluster.serve(query)
        second = cluster.serve(tuple(reversed(query)))
        assert second.payload_cache_hit
        assert second.parts is first.parts

    def test_unknown_task_raises_keyerror(self, cluster):
        with pytest.raises(KeyError, match="dragons"):
            cluster.serve(["dragons"])

    def test_unknown_transport_rejected(self, cluster):
        with pytest.raises(ValueError, match="transport"):
            cluster.serve([cluster.available_tasks()[0]], transport="float16")

    def test_get_model_matches_consolidate(self, cluster, wide_pool):
        pool, data = wide_pool
        query = _cross_shard_query(cluster)
        model = cluster.get_model(query)
        network, _ = pool.consolidate(sorted(query))
        x = data.test.images[:16]
        assert np.array_equal(model.logits(x), batched_forward(network, x))

    def test_submit_and_close(self, wide_pool):
        pool, _ = wide_pool
        cluster = _make(pool)
        future = cluster.submit([cluster.available_tasks()[0]])
        assert future.result(timeout=60).payload_bytes > 0
        cluster.close()
        with pytest.raises(RuntimeError):
            cluster.submit([cluster.available_tasks()[0]])

    def test_composite_cache_hits_do_not_inflate_shard_traffic(self, cluster):
        query = _cross_shard_query(cluster)
        cluster.serve(query)
        cluster.serve(query)  # the second sighting is kept
        before = cluster.metrics.shard_requests()
        cluster.serve(query)  # composite payload hit: no shard is touched
        assert cluster.metrics.shard_requests() == before

    def test_a_cross_shard_build_runs_on_the_routed_plan(self, cluster, wide_pool, monkeypatch):
        """One plan per request drives routing, the gather and the assemble."""
        _pool, data = wide_pool
        plans = []
        plan = cluster._plan
        monkeypatch.setattr(cluster, "_plan", lambda names: plans.append(names) or plan(names))
        query = tuple(sorted(_cross_shard_query(cluster)))
        cluster.serve(query)  # payload and model miss: routes, gathers, assembles
        cluster.predict(data.test.images[:4], _cross_shard_query(cluster, size=3))
        assert len(plans) == 2 and plans[0] == query

    def test_cache_stats_aggregate_shard_tiers(self, cluster):
        query = _cross_shard_query(cluster)
        for _ in range(3):  # refused, kept, hit
            cluster.serve(query)
        stats = cluster.cache_stats()
        assert set(stats) == {
            "model",
            "payload",
            "composite_model",
            "composite_payload",
            "trunk",
            "remote_heads",
            "result",
        }
        assert stats["composite_payload"].hits == 1
        assert stats["payload"].hits >= 1  # aggregate includes the composite tier


class TestCountedOnce:
    """Each request moves the front end's counters once, whichever entry
    point took it and whether one shard or the front tier answered."""

    ENTRIES = {
        "serve": ("requests", "total", lambda c, x, q: c.serve(q)),
        "submit": ("requests", "total", lambda c, x, q: c.submit(q).result(timeout=60)),
        "predict": ("predictions", "predict_total", lambda c, x, q: c.predict(x, q)),
    }

    @pytest.mark.parametrize("cross", [False, True], ids=["single", "cross"])
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_success_then_forced_failure(self, cluster, wide_pool, monkeypatch, entry, cross):
        counter, stage, call = self.ENTRIES[entry]
        query = _cross_shard_query(cluster) if cross else cluster.available_tasks()[:1]
        images = wide_pool[1].test.images[:4]
        metrics = cluster.metrics

        def reading():
            samples = (metrics.stage_summary(stage) or {"count": 0})["count"]
            return (metrics.counter(counter), samples, metrics.counter("errors"))

        call(cluster, images, query)
        assert reading() == (1, 1, 0)

        def boom(*args, **kwargs):
            raise RuntimeError("shard down")

        for shard in cluster.shards:  # nothing below the front end answers any more
            for method in ("serve", "predict", "fetch_heads"):
                monkeypatch.setattr(shard, method, boom)
        for cache in (
            cluster.model_cache,
            cluster.payload_cache,
            cluster.result_cache,
            cluster.remote_head_cache,
        ):
            cache.clear()
        with pytest.raises(RuntimeError, match="shard down"):
            call(cluster, images, query)
        assert reading() == (2, 1, 1)
        assert metrics.counter("plan_retries") == 0


class TestReplication:
    def test_replicated_hot_task_reduces_fanout(self, wide_pool):
        pool, _ = wide_pool
        names = sorted(pool.expert_names())
        hot = names[0]
        router = ShardRouter(num_shards=4)
        router.replicate(hot, 4)
        cluster = ClusterGateway(pool, ClusterConfig(num_shards=4), router=router)
        try:
            partner = next(
                n for n in names[1:] if router.shard_for(n) != router.shard_for(hot)
            )
            cluster.serve([hot, partner])
            # hot is replicated everywhere, so the pair stays on one shard
            assert cluster.metrics.fanout_histogram() == {1: 1}
            assert len(cluster.shards_of(hot)) == 4
        finally:
            cluster.close()


class TestRebalance:
    def test_rebalance_preserves_answers_and_moves_experts(self, wide_pool):
        pool, data = wide_pool
        cluster = _make(pool)
        try:
            query = _cross_shard_query(cluster)
            cluster.serve(query)  # first sighting: remembered, not kept
            before = deserialize_task_model(cluster.serve(query).payload)
            task = query[0]
            old_primary = cluster.shards_of(task)[0]
            new_primary = (old_primary + 1) % 4
            cluster.router.pin(task, new_primary)
            report = cluster.rebalance()
            assert any(m[0] == task for m in report.moved)
            assert cluster.shards_of(task)[0] == new_primary
            assert cluster.shards[new_primary].holds(task)
            assert not cluster.shards[old_primary].holds(task)
            after_response = cluster.serve(query)
            assert after_response.payload_cache_hit  # a move keeps versions and bytes
            cluster.payload_cache.clear()  # rebuilt from the moved head
            assert cluster.serve(query).payload == after_response.payload
            after = deserialize_task_model(after_response.payload)
            x = data.test.images[:24]
            assert np.array_equal(before.logits(x), after.logits(x))
        finally:
            cluster.close()

    def test_rebalance_keeps_moved_composites(self, wide_pool):
        """A migrated head keeps its version and its bytes, so every entry
        built from it stays valid: the front tier still answers it."""
        pool, _ = wide_pool
        cluster = _make(pool)
        try:
            query = _cross_shard_query(cluster)
            cluster.serve(query)  # first sighting: remembered, not kept
            first = cluster.serve(query)
            assert len(cluster.payload_cache) == 1
            task = query[0]
            cluster.router.pin(task, (cluster.shards_of(task)[0] + 1) % 4)
            assert any(m[0] == task for m in cluster.rebalance().moved)
            again = cluster.serve(query)
            assert again.payload_cache_hit and again.parts is first.parts
        finally:
            cluster.close()

    def test_rebalance_under_live_traffic_never_errors(self, wide_pool):
        """Concurrent serves replan when a migration races their plan."""
        import threading

        pool, _ = wide_pool
        cluster = _make(pool)
        try:
            names = sorted(cluster.available_tasks())
            queries = [(n,) for n in names] + [tuple(names[:2]), tuple(names[2:4])]
            errors = []
            stop = threading.Event()

            def client():
                while not stop.is_set():
                    for query in queries:
                        try:
                            cluster.serve(query)
                        except Exception as exc:  # pragma: no cover
                            errors.append(exc)

            threads = [threading.Thread(target=client) for _ in range(2)]
            for t in threads:
                t.start()
            for round_trip in range(8):
                for i, name in enumerate(names):
                    cluster.router.pin(name, (i + round_trip) % 4)
                cluster.rebalance()
            stop.set()
            for t in threads:
                t.join()
            assert errors == []
        finally:
            cluster.close()

    def test_noop_rebalance_reports_nothing(self, cluster):
        report = cluster.rebalance()
        assert report.moved == ()
        assert report.installs == report.drops == 0

    def test_replacement_router_must_match_shard_count(self, cluster):
        with pytest.raises(ValueError):
            cluster.rebalance(ShardRouter(num_shards=2))


class TestInvalidation:
    def test_reextraction_drops_dependent_entries_everywhere(self, wide_pool):
        pool, data = wide_pool
        cluster = _make(pool)
        query = _cross_shard_query(cluster)
        task = query[0]
        original = pool.experts[task]
        try:
            single = (task,)
            for tasks in (query, single):
                cluster.serve(tasks)
                cluster.get_model(tasks)  # a model-tier entry too
            version = pool.expert_version(task)
            # swap in a structurally identical head with different weights
            donor = next(n for n in pool.expert_names() if n != task)
            pool.attach_expert(task, pool.experts[donor])
            assert pool.expert_version(task) == version + 1
            cross = cluster.serve(query)
            local = cluster.serve(single)
            assert not cross.payload_cache_hit and not local.payload_cache_hit
            # the served payloads and the models really hold the new weights
            x = data.test.images[:16]
            for tasks, served in ((query, cross), (single, local)):
                network, _ = pool.consolidate(list(tasks))
                expected = batched_forward(network, x)
                assert np.array_equal(deserialize_task_model(served.payload).logits(x), expected)
                assert np.array_equal(cluster.get_model(tasks).logits(x), expected)
        finally:
            cluster.close()
            pool.attach_expert(task, original)  # undo for other tests


class TestMigrationPayloads:
    def test_rebalance_ships_serialized_flat_payloads(self, wide_pool):
        """Migration crosses the wire as raw+zlib bytes, counted in metrics."""
        pool, data = wide_pool
        cluster = _make(pool)
        try:
            task = sorted(cluster.available_tasks())[0]
            old_primary = cluster.shards_of(task)[0]
            new_primary = (old_primary + 1) % 4
            cluster.router.pin(task, new_primary)
            report = cluster.rebalance()
            assert any(m[0] == task for m in report.moved)
            assert report.migrated_bytes > 0
            assert cluster.metrics.counter("migrated_bytes") == report.migrated_bytes
            assert cluster.metrics.counter("expert_migrations") >= 1
            # the migrated head is a deserialized copy, not the pool's object,
            # yet it answers bit-identically (the codec is float-exact)
            shard_head = cluster.shards[new_primary].pool.experts[task]
            assert shard_head is not pool.experts[task]
            rebuilt = deserialize_task_model(cluster.serve((task,)).payload)
            network, _ = pool.consolidate([task])
            x = data.test.images[:16]
            assert np.array_equal(rebuilt.logits(x), batched_forward(network, x))
        finally:
            cluster.close()

    def test_bulk_moves_share_one_payload_per_route(self, wide_pool):
        """Several experts moving between the same pair of shards ship together."""
        pool, _ = wide_pool
        cluster = _make(pool)
        try:
            names = sorted(cluster.available_tasks())
            # pin everything to shard 0, then everything to shard 1: the
            # second rebalance moves every expert along the same 0->1 route
            for name in names:
                cluster.router.pin(name, 0)
            cluster.rebalance()
            cluster.metrics._counters.clear()  # isolate the bulk move
            for name in names:
                cluster.router.pin(name, 1)
            report = cluster.rebalance()
            assert len(report.moved) == len(names)
            # one bulk payload for the single 0->1 route, not one per expert
            assert cluster.metrics.counter("migration_payloads") == 1
            assert cluster.metrics.counter("expert_migrations") == len(names)
            assert report.migrated_bytes > 0
        finally:
            cluster.close()


class TestShardErrorContext:
    """Errors raised while a shard serves must carry the shard id.

    Once shards are remote worker processes, a failure report without the
    shard id is unactionable; the tag is applied by the gateway for
    in-process shards and by the wire-protocol ERROR frames for remote
    ones, so every backend reports the same way.
    """

    def test_predict_failure_names_the_shard(self, cluster, wide_pool, monkeypatch):
        pool, data = wide_pool
        task = sorted(cluster.available_tasks())[0]
        (shard_id,) = cluster.shards_of(task)

        def boom(images, names):
            raise RuntimeError("fused bank exploded")

        monkeypatch.setattr(cluster.shards[shard_id].gateway, "predict", boom)
        with pytest.raises(RuntimeError, match=rf"\[shard {shard_id}\] fused bank"):
            cluster.predict(data.test.images[:4], (task,))

    def test_fetch_failure_names_the_source_shard(self, cluster, monkeypatch):
        query = _cross_shard_query(cluster)
        # make the build fetch from the non-home shard, then break that fetch
        plans = {name: cluster.shards_of(name)[0] for name in query}
        non_home = max(plans.values())  # home ties break toward the lowest id

        def boom(names, transport):
            raise RuntimeError("socket reset")

        monkeypatch.setattr(cluster.shards[non_home], "fetch_heads", boom)
        with pytest.raises(RuntimeError, match=rf"\[shard {non_home}\] socket reset"):
            cluster.serve(query)

    def test_keyerror_keeps_type_through_the_tag(self, cluster, wide_pool):
        """A task the placement knows but the shard lost raises a tagged
        KeyError after the replan retry — same type the retry contract
        dispatches on, now with the shard id in the message."""
        pool, _ = wide_pool
        task = sorted(cluster.available_tasks())[0]
        (shard_id,) = cluster.shards_of(task)
        # drop the expert from the shard *view* only: the cluster placement
        # still routes to this shard, so serving fails inside it
        cluster.shards[shard_id].pool.experts.pop(task)
        with pytest.raises(KeyError) as excinfo:
            cluster.serve((task,))
        assert f"[shard {shard_id}]" in str(excinfo.value)
        assert cluster.metrics.counter("plan_retries") >= 1
