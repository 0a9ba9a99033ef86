"""Tests for the query-result cache."""

from __future__ import annotations

import pytest

from repro import CachingRQTreeEngine, RQTreeEngine
from repro.graph.generators import nethept_like


@pytest.fixture(scope="module")
def cached_engine():
    graph = nethept_like(n=80, seed=5)
    return CachingRQTreeEngine(RQTreeEngine.build(graph, seed=5), capacity=4)


class TestCacheBehaviour:
    def test_repeat_lb_query_hits(self, cached_engine):
        cached_engine.invalidate()
        cached_engine.stats.hits = cached_engine.stats.misses = 0
        a = cached_engine.query(0, 0.5)
        b = cached_engine.query(0, 0.5)
        assert a.nodes == b.nodes
        assert cached_engine.stats.hits == 1
        assert cached_engine.stats.misses == 1

    def test_distinct_parameters_miss(self, cached_engine):
        cached_engine.invalidate()
        cached_engine.stats.hits = cached_engine.stats.misses = 0
        cached_engine.query(0, 0.5)
        cached_engine.query(0, 0.6)               # different eta
        cached_engine.query(0, 0.5, max_hops=2)   # different hop budget
        cached_engine.query(1, 0.5)               # different source
        assert cached_engine.stats.hits == 0
        assert cached_engine.stats.misses == 4

    def test_source_order_is_normalized(self, cached_engine):
        cached_engine.invalidate()
        cached_engine.stats.hits = cached_engine.stats.misses = 0
        cached_engine.query([3, 7], 0.5)
        cached_engine.query([7, 3], 0.5)
        assert cached_engine.stats.hits == 1

    def test_seeded_mc_is_cached(self, cached_engine):
        cached_engine.invalidate()
        cached_engine.stats.hits = cached_engine.stats.misses = 0
        cached_engine.query(0, 0.5, method="mc", num_samples=50, seed=1)
        cached_engine.query(0, 0.5, method="mc", num_samples=50, seed=1)
        assert cached_engine.stats.hits == 1

    def test_degraded_answers_are_not_cached(self, cached_engine):
        from repro.resilience import FaultPlan

        cached_engine.invalidate()
        query = dict(method="mc", num_samples=200, seed=4)
        with FaultPlan({"mc.kernel.chunk": "always"}) as plan:
            degraded = cached_engine.query([3, 17], 0.2, **query)
        assert plan.hits("mc.kernel.chunk") >= 1
        assert degraded.degraded
        # The fault is gone: the same query runs again instead of
        # replaying the degraded answer, and the healthy one is kept.
        healthy = cached_engine.query([3, 17], 0.2, **query)
        assert not healthy.degraded
        assert healthy.nodes > degraded.nodes
        assert cached_engine.query([3, 17], 0.2, **query) is healthy

    def test_unseeded_mc_bypasses(self, cached_engine):
        cached_engine.invalidate()
        before = cached_engine.stats.bypasses
        cached_engine.query(0, 0.5, method="mc", num_samples=20)
        assert cached_engine.stats.bypasses == before + 1
        assert len(cached_engine) == 0

    def test_lru_eviction(self):
        graph = nethept_like(n=60, seed=2)
        cache = CachingRQTreeEngine(
            RQTreeEngine.build(graph, seed=2), capacity=2
        )
        cache.query(0, 0.5)
        cache.query(1, 0.5)
        cache.query(2, 0.5)  # evicts the (0, 0.5) entry
        assert cache.stats.evictions == 1
        cache.query(0, 0.5)  # miss again
        assert cache.stats.misses == 4
        assert cache.stats.hits == 0

    def test_lru_recency_updates(self):
        graph = nethept_like(n=60, seed=2)
        cache = CachingRQTreeEngine(
            RQTreeEngine.build(graph, seed=2), capacity=2
        )
        cache.query(0, 0.5)
        cache.query(1, 0.5)
        cache.query(0, 0.5)  # refresh 0
        cache.query(2, 0.5)  # evicts 1, not 0
        cache.query(0, 0.5)
        assert cache.stats.hits == 2

    def test_invalidate_clears(self, cached_engine):
        cached_engine.query(0, 0.5)
        assert len(cached_engine) >= 1
        cached_engine.invalidate()
        assert len(cached_engine) == 0

    def test_hit_rate(self):
        graph = nethept_like(n=40, seed=1)
        cache = CachingRQTreeEngine(RQTreeEngine.build(graph, seed=1))
        assert cache.stats.hit_rate == 0.0
        cache.query(0, 0.5)
        cache.query(0, 0.5)
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_invalid_capacity(self):
        graph = nethept_like(n=40, seed=1)
        with pytest.raises(ValueError):
            CachingRQTreeEngine(RQTreeEngine.build(graph, seed=1), capacity=0)

    def test_passthrough_properties(self, cached_engine):
        assert cached_engine.graph is cached_engine.engine.graph
        assert cached_engine.tree is cached_engine.engine.tree
