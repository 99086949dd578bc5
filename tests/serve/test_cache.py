"""Tests for the thread-safe LRU estimate cache."""

from __future__ import annotations

import sys
import threading

from repro import obs
from repro.serve import EstimateCache


class TestLookupStore:
    def test_miss_then_hit(self):
        cache = EstimateCache(max_size=4)
        assert cache.lookup("k1") is None
        cache.store("k1", 42.0)
        assert cache.lookup("k1") == 42.0
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_lru_eviction_order(self):
        cache = EstimateCache(max_size=2)
        cache.store("a", 1.0)
        cache.store("b", 2.0)
        assert cache.lookup("a") == 1.0  # refresh a; b is now LRU
        cache.store("c", 3.0)            # evicts b
        assert cache.lookup("b") is None
        assert cache.lookup("a") == 1.0
        assert cache.lookup("c") == 3.0
        assert cache.stats()["evictions"] == 1
        assert len(cache) == 2

    def test_store_refreshes_existing_key(self):
        cache = EstimateCache(max_size=2)
        cache.store("a", 1.0)
        cache.store("b", 2.0)
        cache.store("a", 10.0)  # refresh, not insert
        cache.store("c", 3.0)   # evicts b (a was refreshed)
        assert cache.lookup("a") == 10.0
        assert cache.lookup("b") is None

    def test_clear_keeps_counters(self):
        cache = EstimateCache(max_size=4)
        cache.store("a", 1.0)
        cache.lookup("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.lookup("a") is None
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1


class TestDisabledCache:
    def test_zero_capacity_disables_everything(self):
        cache = EstimateCache(max_size=0)
        assert not cache.enabled
        cache.store("a", 1.0)
        assert cache.lookup("a") is None
        assert len(cache) == 0
        stats = cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0


class TestGlobalCounters:
    def test_hits_and_misses_mirrored_to_registry(self):
        obs.reset()
        cache = EstimateCache(max_size=2)
        cache.lookup("a")
        cache.store("a", 1.0)
        cache.lookup("a")
        cache.store("b", 1.0)
        cache.store("c", 1.0)  # evicts
        snapshot = obs.get_registry().snapshot()
        assert snapshot["serve.cache.misses"]["value"] == 1
        assert snapshot["serve.cache.hits"]["value"] == 1
        assert snapshot["serve.cache.evictions"]["value"] == 1


class TestBatchOperations:
    def test_lookup_many_matches_per_key_lookups(self):
        cache = EstimateCache(max_size=4)
        cache.store_many([("a", 1.0), ("b", 2.0)])
        assert cache.lookup_many(["a", "x", "b", "a"]) == [1.0, None, 2.0,
                                                            1.0]
        stats = cache.stats()
        assert stats["hits"] == 3 and stats["misses"] == 1

    def test_lookup_many_refreshes_recency_of_hits(self):
        cache = EstimateCache(max_size=2)
        cache.store_many([("a", 1.0), ("b", 2.0)])
        cache.lookup_many(["a"])          # b is now LRU
        cache.store("c", 3.0)             # evicts b
        assert cache.lookup_many(["a", "b", "c"]) == [1.0, None, 3.0]

    def test_store_many_evicts_in_insertion_order(self):
        cache = EstimateCache(max_size=2)
        cache.store_many([("a", 1.0), ("b", 2.0), ("c", 3.0)])
        assert len(cache) == 2
        assert cache.lookup("a") is None
        assert cache.stats()["evictions"] == 1

    def test_estimates_are_stored_as_float(self):
        cache = EstimateCache(max_size=2)
        cache.store_many([("a", 7)])
        assert type(cache.lookup("a")) is float

    def test_one_registry_increment_per_outcome(self):
        obs.reset()
        cache = EstimateCache(max_size=8)
        cache.store_many([("a", 1.0), ("b", 2.0)])
        cache.lookup_many(["a", "b", "c", "d", "e"])
        snapshot = obs.get_registry().snapshot()
        assert snapshot["serve.cache.hits"]["value"] == 2
        assert snapshot["serve.cache.misses"]["value"] == 3

    def test_disabled_cache_misses_without_counting(self):
        obs.reset()
        cache = EstimateCache(max_size=0)
        cache.store_many([("a", 1.0)])
        assert cache.lookup_many(["a", "b"]) == [None, None]
        assert "serve.cache.misses" not in obs.get_registry().snapshot()


class TestThreadSafety:
    def test_concurrent_mixed_operations(self):
        cache = EstimateCache(max_size=32)

        def worker(base: int) -> None:
            for i in range(300):
                key = f"k{(base + i) % 64}"
                if cache.lookup(key) is None:
                    cache.store(key, float(i))

        threads = [threading.Thread(target=worker, args=(t * 7,))
                   for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) <= 32
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 8 * 300

    def test_concurrent_batch_operations_count_every_key(self):
        cache = EstimateCache(max_size=32)
        rounds, width, n_threads = 200, 8, 8

        def worker(base: int) -> None:
            for i in range(rounds):
                keys = [f"k{(base + i + j) % 64}" for j in range(width)]
                values = cache.lookup_many(keys)
                cache.store_many((key, float(i)) for key, value
                                 in zip(keys, values) if value is None)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t * 5,))
                       for t in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(cache) == 32
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == n_threads * rounds * width
        # Every entry ever inserted followed a miss (two threads missing
        # one key insert it once, so this is not an equality).
        assert 0 < stats["evictions"] + stats["size"] <= stats["misses"]
