"""The service's query-result cache, driven through ReliabilityService.

:class:`~repro.service.cache.TTLResultCache` is the one result cache.
The service decides what it may hold — cacheable methods
(:func:`repro.estimators.is_cacheable`), unbudgeted, not degraded —
and keys every entry on the full query signature plus the graph's
version and epoch.
"""

from __future__ import annotations

import pytest

from repro import RQTreeEngine
from repro.estimators import sampling_methods
from repro.graph.generators import nethept_like
from repro.resilience import FaultPlan
from repro.service import ReliabilityService, TTLResultCache


@pytest.fixture(scope="module")
def engine():
    return RQTreeEngine.build(nethept_like(n=80, seed=5), seed=5)


@pytest.fixture()
def service(engine):
    with ReliabilityService(engine, workers=1) as running:
        yield running


class TestCacheBehaviour:
    def test_repeat_lb_query_hits(self, service, engine):
        first = service.query(0, 0.5, timeout=60)
        assert service.query(0, 0.5, timeout=60) is first
        assert first.nodes == engine.query(0, 0.5).nodes
        assert service.cache.stats.hits == 1
        assert service.cache.stats.misses == 1

    def test_distinct_parameters_miss(self, service):
        service.query(0, 0.5, timeout=60)
        service.query(0, 0.6, timeout=60)              # different eta
        service.query(0, 0.5, max_hops=2, timeout=60)  # different hop budget
        service.query(1, 0.5, timeout=60)              # different source
        service.query([0, 1], 0.5, timeout=60)         # different source set
        assert service.cache.stats.hits == 0
        assert service.cache.stats.misses == 5

    def test_source_order_is_normalized(self, service):
        first = service.query([3, 7], 0.5, timeout=60)
        assert service.query([7, 3], 0.5, timeout=60) is first
        assert service.cache.stats.hits == 1

    def test_seeded_mc_is_cached(self, service):
        query = dict(method="mc", num_samples=50, timeout=60)
        first = service.query(0, 0.5, seed=1, **query)
        assert service.query(0, 0.5, seed=1, **query) is first
        service.query(0, 0.5, seed=2, **query)  # another seed misses
        assert service.cache.stats.hits == 1
        assert service.cache.stats.misses == 2

    def test_degraded_answers_are_not_cached(self, service):
        query = dict(method="mc", num_samples=200, seed=4, timeout=60)
        with FaultPlan({"mc.kernel.chunk": "always"}) as plan:
            degraded = service.query([3, 17], 0.2, **query)
        assert plan.hits("mc.kernel.chunk") >= 1
        assert degraded.degraded
        assert len(service.cache) == 0
        # The fault is gone: the same query runs again instead of
        # replaying the degraded answer, and the healthy one is kept.
        healthy = service.query([3, 17], 0.2, **query)
        assert not healthy.degraded
        assert healthy.nodes > degraded.nodes
        assert service.query([3, 17], 0.2, **query) is healthy

    def test_unseeded_mc_bypasses(self, service):
        # Every unseeded sampler is a fresh random draw by contract.
        for method in sampling_methods():
            service.query(0, 0.5, method=method, num_samples=20, timeout=60)
        assert service.cache.stats.bypasses == len(sampling_methods())
        assert len(service.cache) == 0

    def test_lru_eviction(self, engine):
        service = ReliabilityService(
            engine, workers=1, cache=TTLResultCache(capacity=2)
        )
        with service:
            service.query(0, 0.5, timeout=60)
            service.query(1, 0.5, timeout=60)
            service.query(2, 0.5, timeout=60)  # evicts the (0, 0.5) entry
            assert service.cache.stats.evictions == 1
            service.query(0, 0.5, timeout=60)  # miss again
        assert service.cache.stats.misses == 4
        assert service.cache.stats.hits == 0

    def test_lru_recency_updates(self, engine):
        service = ReliabilityService(
            engine, workers=1, cache=TTLResultCache(capacity=2)
        )
        with service:
            service.query(0, 0.5, timeout=60)
            service.query(1, 0.5, timeout=60)
            service.query(0, 0.5, timeout=60)  # refresh 0
            service.query(2, 0.5, timeout=60)  # evicts 1, not 0
            service.query(0, 0.5, timeout=60)
        assert service.cache.stats.hits == 2

    def test_invalidate_clears(self):
        # No invalidation call exists: an applied update advances the
        # epoch, which every key embeds, so the cached answer is
        # unreachable afterwards.  (A fresh engine: updates mutate the
        # served graph in place.)
        engine = RQTreeEngine.build(nethept_like(n=80, seed=5), seed=5)
        with ReliabilityService(engine, workers=1, live=True) as service:
            first = service.query(0, 0.5, timeout=60)
            assert service.query(0, 0.5, timeout=60) is first
            service.apply_updates([{"op": "set", "u": 0, "v": 1, "p": 0.9}])
            after = service.query(0, 0.5, timeout=60)
        assert after is not first
        assert after.epoch == first.epoch + 1
        assert service.cache.stats.hits == 1
        assert service.cache.stats.misses == 2

    def test_hit_rate(self, service):
        assert service.cache.stats.hit_rate == 0.0
        service.query(0, 0.5, timeout=60)
        service.query(0, 0.5, timeout=60)
        assert service.cache.stats.hit_rate == pytest.approx(0.5)

    def test_passthrough_properties(self, engine):
        # The service serves the engine it is given; nothing is unwrapped.
        cache = TTLResultCache()
        with ReliabilityService(engine, workers=1, cache=cache) as service:
            assert service.engine is engine
            assert service.cache is cache
