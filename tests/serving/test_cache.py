"""ByteBudgetLRU: byte accounting, LRU order, stats, thread safety."""

import threading

import pytest

from repro.serving import ByteBudgetLRU


class TestBasics:
    def test_get_miss_returns_default(self):
        cache = ByteBudgetLRU(100)
        assert cache.get("missing") is None
        assert cache.get("missing", default=42) == 42

    def test_put_then_get(self):
        cache = ByteBudgetLRU(100)
        assert cache.put("k", "v", 10)
        assert cache.get("k") == "v"

    def test_replacing_updates_bytes(self):
        cache = ByteBudgetLRU(100)
        cache.put("k", "a", 60)
        cache.put("k", "b", 20)
        stats = cache.stats()
        assert stats.current_bytes == 20
        assert stats.current_entries == 1
        assert cache.get("k") == "b"

    def test_discard_and_clear(self):
        cache = ByteBudgetLRU(100)
        cache.put("a", 1, 10)
        cache.put("b", 2, 10)
        assert cache.discard("a")
        assert not cache.discard("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().current_bytes == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            ByteBudgetLRU(-1)


class TestEviction:
    def test_evicts_lru_when_over_budget(self):
        cache = ByteBudgetLRU(100)
        cache.put("a", 1, 40)
        cache.put("b", 2, 40)
        cache.put("c", 3, 40)  # pushes total to 120 -> evict "a"
        assert cache.get("a") is None
        assert cache.get("b") == 2
        assert cache.get("c") == 3
        assert cache.stats().evictions == 1

    def test_get_refreshes_recency(self):
        cache = ByteBudgetLRU(100)
        cache.put("a", 1, 40)
        cache.put("b", 2, 40)
        cache.get("a")  # now "b" is LRU
        cache.put("c", 3, 40)
        assert cache.get("b") is None
        assert cache.get("a") == 1

    def test_oversized_value_rejected_not_cached(self):
        cache = ByteBudgetLRU(100)
        assert not cache.put("huge", "x", 101)
        assert cache.get("huge") is None
        assert cache.stats().rejections == 1

    def test_zero_budget_disables_cache(self):
        cache = ByteBudgetLRU(0)
        assert not cache.put("k", "v", 1)
        assert not cache.put("empty", "v", 0)  # even 0-byte values are rejected
        assert cache.get("k") is None
        stats = cache.stats()
        assert stats.hits == 0 and stats.misses == 1 and stats.rejections == 2


class TestStats:
    def test_hit_rate(self):
        cache = ByteBudgetLRU(100)
        cache.put("k", "v", 1)
        cache.get("k")
        cache.get("k")
        cache.get("nope")
        stats = cache.stats()
        assert stats.hits == 2 and stats.misses == 1
        assert stats.hit_rate == pytest.approx(2 / 3)

    def test_hit_rate_without_traffic_is_zero(self):
        assert ByteBudgetLRU(10).stats().hit_rate == 0.0

    def test_reset_stats_keeps_contents(self):
        cache = ByteBudgetLRU(100)
        cache.put("k", "v", 1)
        cache.get("k")
        cache.reset_stats()
        stats = cache.stats()
        assert stats.hits == 0 and stats.insertions == 0
        assert cache.get("k") == "v"

    def test_keys_in_lru_order(self):
        cache = ByteBudgetLRU(100)
        cache.put("a", 1, 1)
        cache.put("b", 2, 1)
        cache.get("a")
        assert cache.keys() == ["b", "a"]


class TestThreadSafety:
    def test_concurrent_mixed_operations(self):
        cache = ByteBudgetLRU(512)
        errors = []

        def worker(tid):
            try:
                for i in range(300):
                    key = (tid + i) % 24
                    cache.put(key, i, 32)
                    cache.get(key)
                    if i % 50 == 0:
                        cache.discard(key)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cache.stats()
        assert stats.current_bytes <= 512
        assert stats.current_entries == len(cache.keys())


class TestContains:
    def test_contains_is_stats_neutral(self):
        from repro.serving.cache import ByteBudgetLRU

        cache = ByteBudgetLRU(1 << 10)
        cache.put("k", b"v", 1)
        assert cache.contains("k")
        assert not cache.contains("missing")
        stats = cache.stats()
        assert stats.hits == 0 and stats.misses == 0  # peeks counted nothing
