"""The prediction serving tier: trunk cache, fused path, concurrent callers."""

import hashlib
import sys
import threading

import numpy as np
import pytest

from repro.core.features import TrunkFeatureCache, array_digest
from repro.serving import GatewayConfig, ServingGateway
from tests.conftest import assert_fused_ids_match

# every fused walker's scratch is NaN-filled after each call: no answer
# handed out may be a live workspace view
pytestmark = pytest.mark.usefixtures("poisoned_workspace")


@pytest.fixture()
def gateway(named_pool):
    pool, _, _ = named_pool
    with ServingGateway(pool, GatewayConfig(max_workers=2)) as gw:
        yield gw


class TestArrayDigest:
    def test_same_content_same_digest(self, rng):
        a = rng.standard_normal((4, 3, 6, 6)).astype(np.float32)
        assert array_digest(a) == array_digest(a.copy())

    def test_same_shape_different_content_differs(self, rng):
        """The regression the digest key exists for: same row count, new data."""
        a = rng.standard_normal((4, 3, 6, 6)).astype(np.float32)
        b = rng.standard_normal((4, 3, 6, 6)).astype(np.float32)
        assert array_digest(a) != array_digest(b)

    def test_shape_and_dtype_participate(self, rng):
        a = rng.standard_normal((6, 4)).astype(np.float32)
        assert array_digest(a) != array_digest(a.reshape(4, 6))
        assert array_digest(a) != array_digest(a.astype(np.float64))

    @pytest.mark.parametrize(
        "layout",
        [
            lambda a: a,
            np.asfortranarray,
            lambda a: a[::2, :, 1:5, ::-1],
            lambda a: a[:0],
            lambda a: a[0, 0, 0, 0],
        ],
        ids=["c-order", "f-order", "strided-view", "empty", "scalar"],
    )
    def test_digest_hashes_the_c_order_bytes(self, rng, layout):
        """Hashing the buffer in place gives the digest of its C-order bytes."""
        array = layout(rng.standard_normal((4, 3, 6, 6)).astype(np.float32))
        reference = hashlib.blake2b(digest_size=16)
        for chunk in (str(array.shape), str(array.dtype)):
            reference.update(chunk.encode())
        reference.update(np.ascontiguousarray(array).tobytes())
        assert array_digest(array) == reference.hexdigest()


class TestTrunkFeatureCache:
    def test_put_get_roundtrip(self, rng):
        cache = TrunkFeatureCache(1 << 20)
        feats = rng.standard_normal((8, 16, 3, 3)).astype(np.float32)
        assert cache.put("k", feats)
        assert cache.get("k") is feats

    def test_zero_budget_disables(self, rng):
        cache = TrunkFeatureCache(0)
        feats = rng.standard_normal((2, 4, 3, 3)).astype(np.float32)
        assert not cache.put("k", feats)
        assert cache.get("k") is None


class TestAdmission:
    """Both content-keyed tiers keep an entry from a batch's second sighting on."""

    def test_never_repeated_stream_stores_nothing(self, named_pool):
        pool, data, _ = named_pool
        stream = [data.test.images[i * 5 : (i + 1) * 5] for i in range(6)]
        off = GatewayConfig(max_workers=1, result_cache_bytes=0)
        with ServingGateway(pool, GatewayConfig(max_workers=1)) as gw, ServingGateway(
            pool, off, trunk_cache=TrunkFeatureCache(0)
        ) as bare:
            for x in stream:
                gated = gw.predict(x, ["pets", "birds"])
                plain = bare.predict(x, ["pets", "birds"])
                assert np.array_equal(gated.class_ids, plain.class_ids)
                assert not gated.trunk_cache_hit and not gated.result_cache_hit
            stats = gw.cache_stats()
        for tier in ("trunk", "result"):
            assert stats[tier].current_bytes == 0 and stats[tier].insertions == 0
            # every first-sighting refusal is counted
            assert stats[tier].rejections == len(stream)

    def test_second_sighting_stores_and_third_hits(self, named_pool):
        pool, data, _ = named_pool
        x = data.test.images[:6]
        with ServingGateway(pool, GatewayConfig(max_workers=1)) as gw:
            first = gw.predict(x, ["pets"])
            assert len(gw.trunk_cache) == 0 and len(gw.result_cache) == 0
            second = gw.predict(x, ["pets"])
            assert not second.trunk_cache_hit and not second.result_cache_hit
            assert len(gw.trunk_cache) == 1 and len(gw.result_cache) == 1
            third = gw.predict(x, ["pets"])
            assert third.result_cache_hit
            # other composite, same images: the stored features serve it
            assert gw.predict(x, ["fish"]).trunk_cache_hit
        assert np.array_equal(first.class_ids, third.class_ids)

    def test_digest_memory_stays_at_its_bound(self, monkeypatch):
        from repro.serving import cache as serving_cache

        monkeypatch.setattr(serving_cache, "SEEN_KEYS", 3)
        cache = TrunkFeatureCache(1 << 20)
        assert not any(cache.admit(digest) for digest in "abcde")
        assert len(cache._doorkeeper._seen) == 3
        assert not cache.admit("a")  # forgotten: a first sighting again
        assert cache.admit("e")
        cache.clear()
        assert len(cache._doorkeeper._seen) == 0 and not cache.admit("e")

    def test_resident_digest_is_admitted(self, rng):
        cache = TrunkFeatureCache(1 << 20)
        cache.put("k", rng.standard_normal((2, 4, 3, 3)).astype(np.float32))
        assert cache.admit("k")  # an explicit put is not gated

    def test_library_bump_forgets_remembered_digests(self, tiny_hierarchy):
        from tests.conftest import build_micro_pool

        pool, data, _ = build_micro_pool(tiny_hierarchy, seed=6, train_per_class=15)
        query = sorted(pool.expert_names())[:2]
        x = data.test.images[:10]
        with ServingGateway(pool) as gw:
            gw.predict(x, query)
            assert len(gw.trunk_cache._doorkeeper._seen) == 1
            pool.extract_library(data.train.images)
            # sightings key on the library version: a first sighting again
            gw.predict(x, query)
            assert len(gw.trunk_cache) == 0 and len(gw.result_cache) == 0


class TestPredict:
    def test_ids_match_reference_model(self, gateway, named_pool):
        pool, data, _ = named_pool
        x = data.test.images[:20]
        response = gateway.predict(x, ["pets", "birds"])
        model = gateway.get_model(["pets", "birds"])
        assert_fused_ids_match(response.class_ids, model.logits(x), model.classes)
        assert response.tasks == ("birds", "pets")  # canonical order
        assert response.batch_size == 20

    def test_trunk_cache_hits_on_repeat(self, gateway, named_pool):
        _, data, _ = named_pool
        x = data.test.images[:10]
        gateway.predict(x, ["pets"])  # first sighting: remembered only
        cold = gateway.predict(x, ["pets"])  # second: computed and stored
        warm = gateway.predict(x, ["pets", "fish"])  # other composite, same trunk
        assert not cold.trunk_cache_hit
        assert warm.trunk_cache_hit  # features reused *across* composites
        assert gateway.cache_stats()["trunk"].hits >= 1

    def test_same_row_count_different_images_recomputes(self, gateway, named_pool):
        """Digest keying: a new batch with the same shape must not hit."""
        _, data, _ = named_pool
        first, second = data.test.images[:10], data.test.images[10:20]
        gateway.predict(first, ["pets"])
        gateway.predict(first, ["pets"])  # resident from its second sighting
        response = gateway.predict(second, ["pets"])
        assert not response.trunk_cache_hit
        # and its ids are correct for the *second* batch
        model = gateway.get_model(["pets"])
        assert_fused_ids_match(response.class_ids, model.logits(second), model.classes)

    def test_reextraction_invalidates_fused_model(self, tiny_hierarchy):
        """Version bump → cached model out of service → fresh bank serves new weights."""
        from tests.conftest import build_micro_pool

        pool, data, _ = build_micro_pool(tiny_hierarchy, seed=5, train_per_class=15)
        name = sorted(pool.expert_names())[0]
        query = sorted(pool.expert_names())[:2]
        x = data.test.images[:12]
        with ServingGateway(pool) as gw:
            gw.predict(x, query)
            assert len(gw.model_cache) == 1
            pool.extract_expert(name, data.train.images)
            response = gw.predict(x, query)
            assert not response.model_cache_hit  # keyed on the old version
            network, composite = pool.consolidate(query)
            from repro.distill import batched_forward

            assert_fused_ids_match(
                response.class_ids, batched_forward(network, x), composite.classes
            )

    def test_library_reextraction_clears_trunk_and_model_caches(self, tiny_hierarchy):
        """A trunk swap invalidates features and models, not just experts."""
        from tests.conftest import build_micro_pool

        pool, data, _ = build_micro_pool(tiny_hierarchy, seed=6, train_per_class=15)
        query = sorted(pool.expert_names())[:2]
        x = data.test.images[:10]
        with ServingGateway(pool) as gw:
            gw.predict(x, query)
            gw.predict(x, query)  # the second sighting stores the features
            assert len(gw.trunk_cache) == 1 and len(gw.model_cache) == 1
            pool.extract_library(data.train.images)  # new frozen trunk
            # old experts still attach to the pool; a fresh predict runs
            # the *new* trunk and matches the new reference end to end: the
            # old entries are keyed on the old library version
            response = gw.predict(x, query)
            assert not response.trunk_cache_hit and not response.model_cache_hit
            network, composite = pool.consolidate(query)
            from repro.distill import batched_forward

            assert_fused_ids_match(
                response.class_ids, batched_forward(network, x), composite.classes
            )

    def test_unknown_task_raises_and_counts(self, gateway):
        with pytest.raises(KeyError):
            gateway.predict(np.zeros((2, 3, 6, 6), dtype=np.float32), ["dragons"])
        assert gateway.metrics.counter("errors") == 1

    def test_stage_metrics_recorded(self, gateway, named_pool):
        _, data, _ = named_pool
        gateway.predict(data.test.images[:6], ["pets"])
        stages = gateway.metrics.snapshot()["stages"]
        for stage in (
            "predict_trunk_fused",
            "predict_heads",
            "predict_argmax",
            "predict_total",
        ):
            assert stage in stages, stage
        # the compiled trunk ran — the autograd fallback never fired
        assert "predict_trunk" not in stages
        assert gateway.metrics.counter("fused_trunk_fallback") == 0


class TestConcurrentPredict:
    def test_threads_match_sequential(self, named_pool):
        """Threads predicting at once, on the same and on different batches,
        answer what sequential calls answer, and no tier outgrows its budget."""
        pool, data, _ = named_pool
        batches = [data.test.images[i * 5 : (i + 1) * 5] for i in range(3)]
        queries = [
            (batches[i % 3], ["pets"] if i % 2 else ["pets", "birds"]) for i in range(12)
        ]
        with ServingGateway(pool, GatewayConfig(max_workers=1)) as gw:
            sequential = [gw.predict(x, tasks).class_ids for x, tasks in queries]
        start = threading.Barrier(len(queries))
        answers = [None] * len(queries)

        def ask(i):
            x, tasks = queries[i]
            start.wait(timeout=30)
            answers[i] = shared.predict(x, tasks).class_ids

        # budgets that hold two of the three batches' features and answers:
        # the trunk and result tiers evict while threads race to fill them
        tight = GatewayConfig(model_cache_bytes=1, result_cache_bytes=256)
        trunk_cache = TrunkFeatureCache(12 << 10)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads inside the tiers' critical sections
        try:
            with ServingGateway(pool, tight, trunk_cache=trunk_cache) as shared:
                threads = [threading.Thread(target=ask, args=(i,)) for i in range(len(queries))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                stats = shared.cache_stats()
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(answer is not None for answer in answers)
        for seq, got in zip(sequential, answers):
            assert np.array_equal(seq, got)
        for tier, tier_stats in stats.items():
            assert tier_stats.current_bytes <= tier_stats.budget_bytes, tier


class TestResultCache:
    def test_repeat_request_skips_even_the_heads(self, named_pool):
        pool, data, _ = named_pool
        x = data.test.images[:10]
        with ServingGateway(pool, GatewayConfig(max_workers=1)) as gw:
            gw.predict(x, ["pets", "birds"])  # first sighting: remembered only
            cold = gw.predict(x, ["pets", "birds"])
            heads_runs = gw.metrics.snapshot()["stages"]["predict_heads"]["count"]
            warm = gw.predict(x, ["pets", "birds"])
            assert not cold.result_cache_hit
            assert warm.result_cache_hit and not warm.trunk_cache_hit
            assert np.array_equal(cold.class_ids, warm.class_ids)
            # the fused heads did not run again for the repeat
            assert (
                gw.metrics.snapshot()["stages"]["predict_heads"]["count"]
                == heads_runs
            )
            assert gw.metrics.counter("predict_result_hits") == 1
            assert gw.cache_stats()["result"].hits == 1

    def test_different_images_or_tasks_miss(self, named_pool):
        pool, data, _ = named_pool
        with ServingGateway(pool, GatewayConfig(max_workers=1)) as gw:
            gw.predict(data.test.images[:10], ["pets"])
            gw.predict(data.test.images[:10], ["pets"])  # resident from here
            other_images = gw.predict(data.test.images[10:20], ["pets"])
            other_tasks = gw.predict(data.test.images[:10], ["pets", "fish"])
            assert not other_images.result_cache_hit
            assert not other_tasks.result_cache_hit

    def test_version_bump_evicts_eagerly_and_recomputes(self, tiny_hierarchy):
        """A version bump takes the answer out of service at once (its key
        carries the old versions) and the next request recomputes it."""
        from tests.conftest import build_micro_pool

        pool, data, _ = build_micro_pool(tiny_hierarchy, seed=8, train_per_class=15)
        name = sorted(pool.expert_names())[0]
        query = sorted(pool.expert_names())[:2]
        x = data.test.images[:8]
        with ServingGateway(pool) as gw:
            gw.predict(x, query)
            gw.predict(x, query)  # the second sighting stores the answer
            assert len(gw.result_cache) == 1
            pool.extract_expert(name, data.train.images)
            response = gw.predict(x, query)
            assert not response.result_cache_hit
            network, composite = pool.consolidate(query)
            from repro.distill import batched_forward

            assert_fused_ids_match(
                response.class_ids, batched_forward(network, x), composite.classes
            )

    def test_library_bump_clears_results(self, tiny_hierarchy):
        from tests.conftest import build_micro_pool

        pool, data, _ = build_micro_pool(tiny_hierarchy, seed=10, train_per_class=15)
        query = sorted(pool.expert_names())[:2]
        with ServingGateway(pool) as gw:
            gw.predict(data.test.images[:8], query)
            gw.predict(data.test.images[:8], query)  # stored on the second sighting
            assert len(gw.result_cache) == 1
            pool.extract_library(data.train.images)
            # the entry is keyed on the old library version: out of service
            assert not gw.predict(data.test.images[:8], query).result_cache_hit

    def test_zero_budget_disables(self, named_pool):
        pool, data, _ = named_pool
        x = data.test.images[:10]
        with ServingGateway(
            pool, GatewayConfig(max_workers=1, result_cache_bytes=0)
        ) as gw:
            first = gw.predict(x, ["pets"])
            gw.predict(x, ["pets"])  # the second sighting stores the features
            third = gw.predict(x, ["pets"])
            assert not first.result_cache_hit and not third.result_cache_hit
            assert third.trunk_cache_hit  # the feature tier still works
            assert np.array_equal(first.class_ids, third.class_ids)
