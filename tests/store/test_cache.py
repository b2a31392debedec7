"""ChunkCache behaviour: budget eviction order, pinning, stats."""
import numpy as np
import pytest

from repro.store import ChunkCache


def block(n_bytes: int) -> np.ndarray:
    return np.zeros(n_bytes, dtype=np.uint8)


class TestLRUBudget:
    def test_hits_and_misses_counted(self):
        cache = ChunkCache(budget_bytes=1000)
        cache.get("a", lambda: block(10))
        cache.get("a", lambda: block(10))
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 1

    def test_evicts_least_recently_used_first(self):
        cache = ChunkCache(budget_bytes=250)
        for key in "abc":
            cache.get(key, lambda: block(100))
        # a is oldest -> evicted to fit c
        assert "a" not in cache and "b" in cache and "c" in cache
        cache.get("b", lambda: block(100))      # touch b: now c is LRU
        cache.get("d", lambda: block(100))
        assert "c" not in cache and "b" in cache and "d" in cache
        assert cache.stats()["evictions"] == 2

    def test_budget_is_soft_for_the_just_loaded_chunk(self):
        cache = ChunkCache(budget_bytes=50)
        out = cache.get("big", lambda: block(100))
        assert out.nbytes == 100
        assert "big" in cache  # never evict what was just loaded
        cache.get("b", lambda: block(10))
        assert "big" not in cache  # next insert trims it

    def test_cached_bytes_tracks_occupancy(self):
        cache = ChunkCache(budget_bytes=1000)
        cache.get("a", lambda: block(64))
        cache.get("b", lambda: block(36))
        assert cache.stats()["cached_bytes"] == 100
        assert len(cache) == 2

    def test_zero_budget_keeps_only_latest(self):
        cache = ChunkCache(budget_bytes=0)
        cache.get("a", lambda: block(10))
        cache.get("b", lambda: block(10))
        assert "a" not in cache and "b" in cache


class TestPinning:
    def test_pinned_chunks_survive_eviction_pressure(self):
        cache = ChunkCache(budget_bytes=150)
        cache.get("hot", lambda: block(100))
        with cache.pinned(["hot"]):
            for key in "abcd":
                cache.get(key, lambda: block(100))
            assert "hot" in cache  # over budget the whole time, yet held
        cache.get("z", lambda: block(100))
        assert "hot" not in cache  # unpinned -> evictable again

    def test_pins_nest(self):
        cache = ChunkCache(budget_bytes=10)
        cache.get("k", lambda: block(5))
        cache.pin("k")
        cache.pin("k")
        cache.unpin("k")
        cache.get("a", lambda: block(10))  # over budget: k is LRU
        assert "k" in cache  # one pin still held
        cache.unpin("k")
        cache.get("b", lambda: block(10))
        assert "k" not in cache


class TestValidation:
    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget_bytes"):
            ChunkCache(budget_bytes=-1)

    def test_stats_shape(self):
        stats = ChunkCache(budget_bytes=7).stats()
        assert set(stats) == {"hits", "misses", "evictions", "cached_chunks",
                              "cached_bytes", "pinned_chunks", "budget_bytes"}
        assert stats["budget_bytes"] == 7
