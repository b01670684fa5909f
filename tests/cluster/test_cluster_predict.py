"""Cluster prediction tier and the version-keyed remote-head LRU."""

import threading

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ClusterGateway
from repro.distill import batched_forward
from tests.conftest import assert_fused_ids_match


def _make(pool, **overrides):
    defaults = dict(num_shards=4)
    defaults.update(overrides)
    return ClusterGateway(pool, ClusterConfig(**defaults))


def _cross_shard_query(cluster, size=2):
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


def _assert_matches_reference(class_ids, pool, query, x):
    """Fused cluster ids vs the per-head-loop reference (tie-tolerant)."""
    network, composite = pool.consolidate(list(query))
    assert_fused_ids_match(class_ids, batched_forward(network, x), composite.classes)


class TestClusterPredict:
    def test_single_shard_predict_matches_reference(self, wide_pool):
        pool, data = wide_pool
        x = data.test.images[:16]
        with _make(pool) as cluster:
            name = sorted(cluster.available_tasks())[0]
            response = cluster.predict(x, [name])
            _assert_matches_reference(response.class_ids, pool, (name,), x)

    def test_cross_shard_predict_matches_reference(self, wide_pool):
        pool, data = wide_pool
        x = data.test.images[:16]
        with _make(pool) as cluster:
            query = _cross_shard_query(cluster)
            response = cluster.predict(x, query)
            assert cluster.metrics.counter("cross_shard") >= 1
            _assert_matches_reference(response.class_ids, pool, query, x)

    def test_trunk_features_shared_across_shards(self, wide_pool):
        """Features computed by one shard's gateway serve every other shard."""
        pool, data = wide_pool
        x = data.test.images[:12]
        with _make(pool) as cluster:
            names = sorted(cluster.available_tasks())
            distinct = [
                n for n in names if cluster.shards_of(n)[0] != cluster.shards_of(names[0])[0]
            ]
            cluster.predict(x, [names[0]])  # first sighting: remembered only
            cold = cluster.predict(x, [names[0]])
            warm = cluster.predict(x, [distinct[0]])  # other shard, same library
            assert not cold.trunk_cache_hit
            assert warm.trunk_cache_hit
            assert cluster.cache_stats()["trunk"].hits >= 1

    def test_shards_and_front_end_share_one_digest_memory(self, wide_pool):
        """A sighting on one shard counts for every other shard and the front end."""
        pool, data = wide_pool
        x = data.test.images[:12]
        with _make(pool) as cluster:
            assert all(shard.gateway.trunk_cache is cluster.trunk_cache for shard in cluster.shards)
            query = _cross_shard_query(cluster)
            elsewhere = next(
                n
                for n in sorted(cluster.available_tasks())
                if cluster.shards_of(n)[0] != cluster.shards_of(query[0])[0]
            )
            cluster.predict(x, query[:1])  # first sighting, on one shard
            assert len(cluster.trunk_cache) == 0
            second = cluster.predict(x, query)  # second, at the front end: stored
            assert not second.trunk_cache_hit
            assert len(cluster.trunk_cache) == 1 and len(cluster.result_cache) == 1
            assert cluster.predict(x, [elsewhere]).trunk_cache_hit  # another shard

    def test_concurrent_predicts_match_sequential(self, wide_pool):
        """Threads predicting single-shard and cross-shard composites at once,
        on the same and on different batches, answer what sequential calls
        answer, and no tier outgrows its budget."""
        pool, data = wide_pool
        batches = [data.test.images[i * 8 : (i + 1) * 8] for i in range(2)]
        with _make(pool) as cluster:
            single = (sorted(cluster.available_tasks())[0],)
            cross = _cross_shard_query(cluster)
            queries = [(batches[i % 2], (single, cross)[i // 2 % 2]) for i in range(8)]
            sequential = [cluster.predict(x, q).class_ids for x, q in queries]
        start = threading.Barrier(len(queries))
        answers = [None] * len(queries)

        def ask(i):
            x, query = queries[i]
            start.wait(timeout=30)
            answers[i] = shared.predict(x, query).class_ids

        # model tiers that hold about one consolidated model each
        tight = dict(shard_model_cache_bytes=200 << 10, composite_model_cache_bytes=200 << 10)
        with _make(pool, **tight) as shared:
            threads = [threading.Thread(target=ask, args=(i,)) for i in range(len(queries))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            stats = shared.cache_stats()
        assert not any(thread.is_alive() for thread in threads)
        assert all(answer is not None for answer in answers)
        for seq, got in zip(sequential, answers):
            assert np.array_equal(seq, got)
        for tier, tier_stats in stats.items():
            assert tier_stats.current_bytes <= tier_stats.budget_bytes, tier
        _assert_matches_reference(answers[0], pool, single, batches[0])
        _assert_matches_reference(answers[2], pool, cross, batches[0])

    def test_unknown_task_raises(self, wide_pool):
        pool, data = wide_pool
        with _make(pool) as cluster:
            with pytest.raises(KeyError):
                cluster.predict(data.test.images[:4], ["dragons"])


class TestRemoteHeadCache:
    def test_rebuild_reuses_cached_remote_heads(self, wide_pool):
        """Dropping the composite caches must not refetch remote payloads."""
        pool, _ = wide_pool
        with _make(pool) as cluster:
            query = _cross_shard_query(cluster)
            cluster.serve(query)
            fetches = cluster.metrics.counter("remote_fetches")
            assert fetches >= 1
            cluster.model_cache.clear()
            cluster.payload_cache.clear()
            cluster.serve(query)
            assert cluster.metrics.counter("remote_fetches") == fetches
            assert cluster.metrics.counter("remote_head_hits") >= 1

    def test_shared_remote_expert_cached_across_composites(self, wide_pool):
        """Two composites sharing a remote expert fetch it once."""
        pool, _ = wide_pool
        with _make(pool) as cluster:
            query = _cross_shard_query(cluster, size=3)
            cluster.serve(query[:2])
            before = cluster.metrics.counter("remote_fetch_bytes")
            cluster.serve(query)  # superset: remote heads overlap
            # at least one overlapping head came from the cache this time
            assert (
                cluster.metrics.counter("remote_head_hits") >= 1
                or cluster.metrics.counter("remote_fetch_bytes") == before
            )

    def test_version_bump_invalidates_remote_head_entries(self, wide_pool):
        pool, data = wide_pool
        with _make(pool) as cluster:
            query = _cross_shard_query(cluster)
            cluster.serve(query)
            assert len(cluster.remote_head_cache) >= 1
            cached_names = {key[0] for key in cluster.remote_head_cache.keys()}
            victim = next(iter(cached_names))
            pool.attach_expert(victim, pool.experts[victim])  # version bump
            # the old entry is keyed on the old version: a rebuild fetches
            # the new version and still predicts correctly
            fetches = cluster.metrics.counter("remote_fetches")
            response = cluster.predict(data.test.images[:8], query)
            assert cluster.metrics.counter("remote_fetches") == fetches + 1
            assert (victim, pool.expert_version(victim)) in cluster.remote_head_cache.keys()
            _assert_matches_reference(
                response.class_ids, pool, query, data.test.images[:8]
            )

    def test_library_reextraction_resyncs_shards_and_clears_tiers(self, tiny_hierarchy):
        """A trunk swap repoints every shard view and takes every tier's
        entries out of service (they are keyed on the old library version)."""
        from tests.conftest import build_micro_pool

        pool, data, _ = build_micro_pool(tiny_hierarchy, seed=8, train_per_class=15)
        x = data.test.images[:10]
        with _make(pool, num_shards=2) as cluster:
            query = _cross_shard_query(cluster)
            cluster.predict(x, query)
            cluster.predict(x, query)  # the second sighting stores the features
            assert len(cluster.trunk_cache) >= 1
            pool.extract_library(data.train.images)  # new frozen trunk
            for shard in cluster.shards:
                assert shard.pool.library is pool.library
                assert shard.pool.versions(()) == pool.versions(())
            response = cluster.predict(x, query)
            assert not (response.result_cache_hit or response.trunk_cache_hit)
            assert not response.model_cache_hit
            _assert_matches_reference(response.class_ids, pool, query, x)

    def test_zero_budget_disables_remote_head_cache(self, wide_pool):
        pool, _ = wide_pool
        with _make(pool, remote_head_cache_bytes=0) as cluster:
            query = _cross_shard_query(cluster)
            cluster.serve(query)
            fetches = cluster.metrics.counter("remote_fetches")
            cluster.model_cache.clear()
            cluster.payload_cache.clear()
            cluster.serve(query)
            assert cluster.metrics.counter("remote_fetches") == 2 * fetches


class TestClusterResultCache:
    def test_cross_shard_repeat_hits_result_cache(self, wide_pool):
        pool, data = wide_pool
        x = data.test.images[:10]
        with _make(pool) as cluster:
            query = _cross_shard_query(cluster)
            cluster.predict(x, query)  # first sighting: remembered only
            cold = cluster.predict(x, query)
            warm = cluster.predict(x, query)
            assert not cold.result_cache_hit
            assert warm.result_cache_hit
            assert np.array_equal(cold.class_ids, warm.class_ids)
            assert cluster.metrics.counter("predict_result_hits") == 1

    def test_single_shard_repeat_hits_shard_result_cache(self, wide_pool):
        pool, data = wide_pool
        x = data.test.images[:10]
        with _make(pool) as cluster:
            name = sorted(cluster.available_tasks())[0]
            cluster.predict(x, [name])
            cluster.predict(x, [name])  # the second sighting stores the answer
            warm = cluster.predict(x, [name])
            assert warm.result_cache_hit
            assert cluster.cache_stats()["result"].hits >= 1

    def test_reextraction_evicts_cluster_results(self, wide_pool):
        pool, data = wide_pool
        x = data.test.images[:10]
        with _make(pool) as cluster:
            query = _cross_shard_query(cluster)
            cluster.predict(x, query)
            cluster.predict(x, query)  # the second sighting stores the answer
            assert len(cluster.result_cache) == 1
            pool.extract_expert(query[0], data.train.images)
            response = cluster.predict(x, query)
            assert not response.result_cache_hit
            _assert_matches_reference(response.class_ids, pool, query, x)
