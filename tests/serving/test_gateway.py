"""ServingGateway: canonicalization, cache tiers, single-flight coalescing."""

import threading
from collections import Counter

import numpy as np
import pytest

from repro.core import TaskSpecificModel, serialize_task_model
from repro.models import BranchedSpecialistNet
from repro.serving import GatewayConfig, ServingGateway, canonical_tasks


@pytest.fixture()
def gateway(named_pool):
    pool, _, _ = named_pool
    gw = ServingGateway(pool)
    yield gw
    gw.close()


def _forbidden(*args, **kwargs):
    raise AssertionError("reached on a path that must not reach it")


class CountingPool:
    """Wraps a trained pool, counting (and optionally gating) its snapshots;
    everything else is the real pool's."""

    def __init__(self, pool, gate=None):
        self._pool = pool
        #: A ``threading.Event`` every snapshot waits for, if given.
        self.gate = gate
        self.consolidations = 0
        self._count_lock = threading.Lock()

    def __getattr__(self, name):
        return getattr(self._pool, name)

    def snapshot(self, query):
        with self._count_lock:
            self.consolidations += 1
        if self.gate is not None:
            assert self.gate.wait(timeout=60), "the gate was never opened"
        return self._pool.snapshot(query)


class TestServe:
    def test_serves_payload_with_canonical_tasks(self, gateway, named_pool):
        response = gateway.serve(["pets", "birds"])
        assert response.tasks == ("birds", "pets")
        assert response.payload_bytes == len(response.payload) > 0
        assert not response.payload_cache_hit and not response.coalesced

    def test_permuted_requests_share_payload(self, gateway):
        gateway.serve(["fish", "pets"])  # first sighting: remembered, not kept
        first = gateway.serve(["pets", "fish"])
        second = gateway.serve(["fish", "pets"])
        assert second.payload_cache_hit
        assert second.parts is first.parts  # same cached object, no re-serialize
        assert first.tasks == second.tasks

    def test_transport_isolates_cache_entries(self, gateway):
        full = gateway.serve(["pets"], transport="float32")
        packed = gateway.serve(["pets"], transport="uint8")
        assert not packed.payload_cache_hit
        assert packed.payload_bytes < full.payload_bytes

    def test_cold_serve_snapshots_the_pool_and_builds_no_model(self, named_pool, monkeypatch):
        pool, _, _ = named_pool
        network, composite = pool.consolidate(["birds", "pets"])
        calls = Counter()
        for method in ("snapshot", "consolidate"):
            real = getattr(pool, method)

            def counted(query, method=method, real=real):
                calls[method] += 1
                return real(query)

            monkeypatch.setattr(pool, method, counted)
        with ServingGateway(pool) as gateway:
            for cold, transport in enumerate(("float32", "raw+zlib", "uint8"), 1):
                response = gateway.serve(["pets", "birds"], transport=transport)
                assert calls == {"snapshot": cold}  # and consolidate never
                assert len(gateway.model_cache) == 0
                assert gateway.model_cache.stats().misses == 0
                expected = serialize_task_model(network, composite, pool.config, transport)
                assert response.payload == expected

    def test_a_filled_model_tier_stays_off_the_serve_path(self, gateway, monkeypatch):
        model = gateway.get_model(["pets", "birds"])
        assert len(gateway.model_cache) == 1
        monkeypatch.setattr(TaskSpecificModel, "__init__", _forbidden)
        monkeypatch.setattr(BranchedSpecialistNet, "__init__", _forbidden)
        response = gateway.serve(["pets", "birds"], transport="uint8")
        assert not response.payload_cache_hit
        assert gateway.model_cache.stats().hits == 0  # serve never looked
        assert gateway.get_model(["birds", "pets"]) is model

    def test_unknown_task_raises_keyerror(self, gateway):
        with pytest.raises(KeyError):
            gateway.serve(["dragons"])

    def test_unknown_transport_rejected(self, gateway):
        with pytest.raises(ValueError, match="transport"):
            gateway.serve(["pets"], transport="float16")

    def test_failed_requests_counted(self, gateway):
        with pytest.raises(KeyError):
            gateway.serve(["dragons"])
        assert gateway.metrics.counter("errors") == 1
        assert gateway.metrics.counter("requests") == 1

    def test_payload_deserializes_to_working_model(self, gateway, named_pool):
        from repro.core import deserialize_task_model

        _, data, _ = named_pool
        response = gateway.serve(["fish", "pets"])
        model = deserialize_task_model(response.payload)
        preds = model.predict(data.test.images[:10])
        assert set(np.unique(preds)).issubset({0, 1, 4, 5})

    def test_metrics_recorded(self, gateway):
        for _ in range(3):
            gateway.serve(["pets"])
        snap = gateway.metrics.snapshot()
        assert snap["counters"]["requests"] == 3
        assert snap["stages"]["total"]["count"] == 3
        # the two misses: the first sighting (refused), the second (kept)
        assert snap["stages"]["serialize"]["count"] == 2
        assert "consolidate" not in snap["stages"]
        stats = gateway.cache_stats()
        assert (stats["payload"].hits, stats["payload"].rejections) == (1, 1)

    def test_render_stats_mentions_tiers(self, gateway):
        gateway.serve(["pets"])
        text = gateway.render_stats()
        assert "cache[payload]" in text and "cache[model]" in text
        assert "p99" in text


class TestCacheControl:
    def test_disabled_caches_still_serve(self, named_pool):
        pool, _, _ = named_pool
        config = GatewayConfig(model_cache_bytes=0, payload_cache_bytes=0)
        with ServingGateway(pool, config) as gateway:
            first = gateway.serve(["pets"])
            second = gateway.serve(["pets"])
            assert not second.payload_cache_hit
            assert first.payload_bytes == second.payload_bytes

    def test_zero_budget_model_tier_is_a_pass_through(self, named_pool, monkeypatch):
        pool, data, _ = named_pool
        config = GatewayConfig(model_cache_bytes=0, result_cache_bytes=0)
        with ServingGateway(pool, config) as gateway:
            monkeypatch.setattr(TaskSpecificModel, "cache_nbytes", _forbidden)
            first = gateway.get_model(["pets", "fish"])
            assert gateway.get_model(["fish", "pets"]) is not first  # nothing kept
            predicted = gateway.predict(data.test.images[:4], ["pets", "fish"])
            assert np.array_equal(predicted.class_ids, first.predict(data.test.images[:4]))
            stats = gateway.model_cache.stats()
            assert (stats.insertions, stats.rejections, stats.requests) == (0, 0, 0)


class TestInvalidation:
    def test_reextraction_drops_dependent_entries(self, named_pool):
        """A version bump takes every dependent entry out of service at once:
        lookups key on the new version, which no entry was stored under."""
        pool, _, _ = named_pool
        with ServingGateway(pool) as gateway:
            for _ in range(2):  # the second sighting is kept
                gateway.serve(["pets", "birds"])
                gateway.serve(["fish"])
            model = gateway.get_model(["pets", "birds"])
            pool.attach_expert("pets", pool.experts["pets"])  # version bump
            assert gateway.get_model(["birds", "pets"]) is not model
            hit = gateway.serve(["fish"])
            missed = gateway.serve(["pets", "birds"])
            assert hit.payload_cache_hit  # unrelated entry untouched
            assert not missed.payload_cache_hit
            assert missed.versions == pool.versions(("birds", "pets"))

    def test_closed_gateway_stops_listening(self, named_pool):
        """Open or closed, a gateway registers no listener on the pool: its
        tiers need no notification to stay correct."""
        pool, _, _ = named_pool
        listeners = list(pool._listeners)
        gateway = ServingGateway(pool)
        gateway.serve(["pets"])
        assert pool._listeners == listeners
        gateway.close()
        assert pool._listeners == listeners


class TestCoalescing:
    def test_concurrent_duplicates_consolidate_exactly_once(self, named_pool, followers_joined):
        """The satellite guarantee: N concurrent identical queries, 1 build."""
        pool, _, _ = named_pool
        clients = 6
        counting = CountingPool(pool, gate=followers_joined(clients - 1))
        with ServingGateway(counting) as gateway:
            responses = [None] * clients
            barrier = threading.Barrier(clients)

            def client(i):
                barrier.wait()
                responses[i] = gateway.serve(["pets", "birds"])

            threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        assert counting.consolidations == 1
        payloads = {id(r.parts) for r in responses}
        assert len(payloads) == 1  # everyone got the leader's bytes
        coalesced = [r for r in responses if r.coalesced]
        leaders = [r for r in responses if not r.coalesced and not r.payload_cache_hit]
        assert len(leaders) == 1
        assert len(coalesced) == clients - 1
        assert gateway.metrics.counter("coalesced") == clients - 1

    def test_coalesced_error_propagates_to_all_waiters(self, named_pool, followers_joined):
        pool, _, _ = named_pool

        class FailingPool(CountingPool):
            def snapshot(self, query):
                super().snapshot(query)
                raise KeyError("boom")

        clients = 4
        failing = FailingPool(pool, gate=followers_joined(clients - 1))
        errors = []
        with ServingGateway(failing) as gateway:
            barrier = threading.Barrier(clients)

            def client(i):
                barrier.wait()
                try:
                    gateway.serve(["pets"])
                except KeyError as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(errors) == clients
        assert failing.consolidations == 1  # single flight even on failure

    def test_failed_flight_not_poisoned(self, named_pool):
        """After an error the key is released; the next request retries."""
        pool, _, _ = named_pool
        with ServingGateway(pool) as gateway:
            with pytest.raises(KeyError):
                gateway.serve(["dragons"])
            with pytest.raises(KeyError):
                gateway.serve(["dragons"])  # not a hung flight, a fresh error


class TestSubmit:
    def test_submit_returns_future_with_queue_wait(self, gateway):
        future = gateway.submit(["pets", "fish"])
        response = future.result(timeout=30)
        assert response.tasks == ("fish", "pets")
        assert response.queue_seconds >= 0.0
        assert gateway.metrics.stage_summary("queue")["count"] == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_max_workers_bounds_concurrent_builds(self, named_pool, workers):
        """A build blocked on a worker holds it: a second submit starts
        beside it only when the pool has a second worker."""
        pool, _, _ = named_pool
        release = threading.Event()
        entered = {"pets": threading.Event(), "fish": threading.Event()}

        class HeldPool(CountingPool):
            def snapshot(self, query):
                entered[query[0]].set()
                if query == ("pets",):
                    assert release.wait(timeout=60), "the held build was never released"
                return self._pool.snapshot(query)

        with ServingGateway(HeldPool(pool), GatewayConfig(max_workers=workers)) as gw:
            held = gw.submit(["pets"])
            assert entered["pets"].wait(timeout=30)
            other = gw.submit(["fish"])
            # a second worker picks "fish" up at once; with one, it waits
            # behind "pets" for as long as the build is held
            started = entered["fish"].wait(timeout=30 if workers > 1 else 0.5)
            release.set()
            assert started == (workers > 1)
            assert held.result(timeout=30).tasks == ("pets",)
            assert other.result(timeout=30).tasks == ("fish",)

    def test_submit_after_close_rejected(self, named_pool):
        pool, _, _ = named_pool
        gateway = ServingGateway(pool)
        gateway.close()
        with pytest.raises(RuntimeError):
            gateway.submit(["pets"])

    def test_get_model_returns_canonical_model(self, gateway):
        model = gateway.get_model(["pets", "birds"])
        assert model.task.names == canonical_tasks(["pets", "birds"])
        again = gateway.get_model(["birds", "pets"])
        assert again is model  # model tier hit across permutations
