"""Tests for the concurrent query-serving layer (repro.service).

The load-bearing guarantee is *concurrent-vs-serial parity*: any
workload pushed through the worker pool — whatever the worker count,
caching, injected faults, or expired budgets — must produce
byte-identical per-query answers to running the same queries serially
against the bare engine.  The rest covers the layer's own machinery:
admission control and load shedding, the TTL'd result cache,
single-flight deduplication, the metrics registry, and ``repro stats``
over a saved snapshot.  The HTTP protocol is
``tests/test_http_conformance.py``; the cache's per-method contract is
``tests/test_caching.py``.
"""

from __future__ import annotations

import json
import re
import threading
import time

import pytest

from repro.errors import EmptySourceSetError
from repro.resilience import UNVERIFIED, FaultPlan, QueryBudget
from repro.service import (
    MetricsRegistry,
    ReliabilityService,
    TTLResultCache,
    get_registry,
    set_registry,
)
from repro.service.metrics import Counter, Gauge, Histogram
from repro.service.pool import AdmissionPolicy, WorkerPool


@pytest.fixture()
def fresh_registry():
    """Isolate the process-global metrics registry for one test."""
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def fingerprint(result):
    """Everything observable about an answer, hashable for comparison."""
    return (
        tuple(sorted(result.nodes)),
        tuple(sorted(result.statuses.items())),
        tuple(sorted(result.candidate_result.candidates)),
        result.degraded,
        result.degraded_reason,
        result.worlds_used,
        result.achieved_confidence,
        result.method,
        result.eta,
        tuple(result.sources),
    )


def mixed_workload(num_queries=200, num_nodes=300):
    """A deterministic mix of lb / lb+ / mc / budgeted queries."""
    specs = []
    for i in range(num_queries):
        sources = (
            [(i * 13) % num_nodes]
            if i % 3
            else [(i * 7) % num_nodes, (i * 11 + 5) % num_nodes]
        )
        eta = (0.3, 0.5, 0.7)[i % 3]
        mode = i % 10
        if mode < 4:
            specs.append(dict(
                sources=sources, eta=eta, method="lb",
                max_hops=3 if i % 5 == 0 else None,
            ))
        elif mode < 6:
            specs.append(dict(sources=sources, eta=eta, method="lb+"))
        elif mode < 8:
            specs.append(dict(
                sources=sources, eta=eta, method="mc",
                num_samples=300, seed=100 + i % 4,
            ))
        elif mode == 8:
            specs.append(dict(
                sources=sources, eta=eta, method="mc",
                num_samples=512, seed=77,
            ))
        else:
            # An immediately-expired budget: degrades identically
            # whether it runs serially or through the pool.
            specs.append(dict(
                sources=sources, eta=eta, method="mc",
                num_samples=300, seed=5,
                budget=QueryBudget(deadline_seconds=1e-9),
            ))
    return specs


# ----------------------------------------------------------------------
# Concurrent-vs-serial parity (the tentpole guarantee)
# ----------------------------------------------------------------------
def test_pool_parity_200_query_mixed_workload(medium_engine):
    specs = mixed_workload(200)
    serial = [fingerprint(medium_engine.query(**spec)) for spec in specs]

    wide = AdmissionPolicy(max_in_flight=1000)
    service = ReliabilityService(medium_engine, workers=8, admission=wide)
    with service:
        futures = [service.submit(**spec) for spec in specs]
        concurrent = [fingerprint(f.result(timeout=120)) for f in futures]
    assert concurrent == serial


def test_pool_parity_under_injected_faults(medium_engine):
    specs = [
        dict(sources=[i], eta=0.5, method=method, num_samples=256, seed=3)
        for i in range(12)
        for method in ("mc", "lazy", "rss")
    ]
    # Every kernel chunk faults: each sampled query degrades to sources
    # confirmed, the rest unverified — serially and through the pool
    # alike, and nothing raises.  The reason names the fault's hit
    # number, which depends on the order the pool reached the point.
    def degraded_fingerprint(result):
        answer = fingerprint(result)
        return answer[:4] + (re.sub(r"#\d+", "#N", answer[4]),) + answer[5:]

    with FaultPlan({"mc.kernel.chunk": "always"}):
        serial = [
            degraded_fingerprint(medium_engine.query(**spec))
            for spec in specs
        ]
        service = ReliabilityService(medium_engine, workers=8)
        with service:
            futures = [service.submit(**spec) for spec in specs]
            pooled = [
                degraded_fingerprint(f.result(timeout=60)) for f in futures
            ]
    assert pooled == serial
    for spec, answer in zip(specs, serial):
        nodes, statuses, _, degraded, reason = answer[:5]
        assert degraded
        assert "InjectedFault" in reason
        assert nodes == tuple(spec["sources"])
        assert {status for node, status in statuses
                if node not in spec["sources"]} <= {UNVERIFIED}


def test_invalid_parameters_raise_synchronously(medium_engine):
    service = ReliabilityService(medium_engine, workers=1)
    with pytest.raises(EmptySourceSetError):
        service.submit([], 0.5)


# ----------------------------------------------------------------------
# Admission control and load shedding
# ----------------------------------------------------------------------
def test_shedding_beyond_max_in_flight(medium_engine, fresh_registry):
    service = ReliabilityService(
        medium_engine,
        workers=2,
        admission=AdmissionPolicy(max_in_flight=2),
    )
    # Submit before start(): the first two are admitted and queued, the
    # rest are shed deterministically.
    futures = [
        service.submit([i], 0.5, method="mc", num_samples=100, seed=i)
        for i in range(5)
    ]
    shed = [f for f in futures if f.done()]
    assert len(shed) == 3
    for future in shed:
        result = future.result()
        assert result.degraded
        assert "in-flight" in result.degraded_reason
        assert result.nodes == set()
        assert result.achieved_confidence == 0.0
    with service:
        for future in futures:
            future.result(timeout=60)
    assert fresh_registry.counter("service.shed").value == 3


def test_queue_deadline_sheds_stale_requests(medium_engine, fresh_registry):
    service = ReliabilityService(
        medium_engine,
        workers=1,
        admission=AdmissionPolicy(
            max_in_flight=64, queue_deadline_seconds=1e-9
        ),
    )
    future = service.submit([0], 0.5)
    with service:
        result = future.result(timeout=60)
    assert result.degraded
    assert "queue deadline" in result.degraded_reason
    assert fresh_registry.counter("service.shed").value == 1


def test_admission_policy_validation():
    with pytest.raises(ValueError, match="max_in_flight"):
        AdmissionPolicy(max_in_flight=0)
    with pytest.raises(ValueError, match="queue_deadline_seconds"):
        AdmissionPolicy(queue_deadline_seconds=0.0)


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------
def test_ttl_cache_hit_returns_same_object(medium_engine, fresh_registry):
    service = ReliabilityService(medium_engine, workers=1)
    with service:
        first = service.query([3], 0.5, timeout=60)
        second = service.query([3], 0.5, timeout=60)
    assert second is first
    stats = service.cache.stats
    assert stats.hits == 1 and stats.misses == 1


def test_unseeded_mc_bypasses_cache(medium_engine):
    service = ReliabilityService(medium_engine, workers=1)
    with service:
        service.query([3], 0.5, method="mc", num_samples=50, timeout=60)
    assert service.cache.stats.bypasses == 1
    assert len(service.cache) == 0


def test_cache_key_includes_graph_version():
    key_v1 = TTLResultCache.make_key(
        1, [2, 1], 0.5, "lb", 1000, None, "greedy", None
    )
    key_v2 = TTLResultCache.make_key(
        2, [2, 1], 0.5, "lb", 1000, None, "greedy", None
    )
    assert key_v1 != key_v2
    # source order is irrelevant; an int source equals its singleton
    assert key_v1 == TTLResultCache.make_key(
        1, [1, 2], 0.5, "lb", 1000, None, "greedy", None
    )
    assert TTLResultCache.make_key(
        1, 7, 0.5, "lb", 1000, None, "greedy", None
    ) == TTLResultCache.make_key(
        1, [7], 0.5, "lb", 1000, None, "greedy", None
    )


def test_graph_mutation_invalidates_service_cache(medium_graph):
    from repro.core.engine import RQTreeEngine

    graph = medium_graph.copy() if hasattr(medium_graph, "copy") else None
    if graph is None:
        pytest.skip("graph copy unsupported")
    engine = RQTreeEngine.build(graph, seed=3)
    service = ReliabilityService(engine, workers=1)
    with service:
        service.query([3], 0.5, timeout=60)
        graph.add_arc(0, graph.num_nodes - 1, 0.5)
        engine.bounds_cache.clear()
        service.query([3], 0.5, timeout=60)
    # The mutation changed graph.version, so the second query keys
    # differently and cannot replay the stale answer.
    assert service.cache.stats.hits == 0
    assert service.cache.stats.misses == 2


def test_ttl_cache_expiry_and_lru():
    clock = [0.0]
    cache = TTLResultCache(capacity=2, ttl_seconds=10.0,
                           clock=lambda: clock[0])
    cache.put("a", "ra")
    cache.put("b", "rb")
    assert cache.get("a") == "ra"
    clock[0] = 5.0
    cache.put("c", "rc")  # evicts LRU ("b": "a" was touched above)
    assert cache.stats.evictions == 1
    assert cache.get("b") is None
    clock[0] = 11.0
    assert cache.get("a") is None  # expired
    assert cache.stats.expirations == 1
    assert cache.get("c") == "rc"  # inserted at t=5, still live
    clock[0] = 20.0
    assert cache.get("c") is None  # an expired entry is dropped on read
    assert len(cache) == 0


def test_ttl_cache_validation():
    with pytest.raises(ValueError, match="capacity"):
        TTLResultCache(capacity=0)
    with pytest.raises(ValueError, match="ttl_seconds"):
        TTLResultCache(ttl_seconds=0.0)


# ----------------------------------------------------------------------
# Single-flight deduplication
# ----------------------------------------------------------------------
def test_identical_inflight_queries_are_deduplicated(
    medium_engine, fresh_registry
):
    service = ReliabilityService(medium_engine, workers=1)
    # Both submitted before start(): the second must piggyback on the
    # first instead of re-running the query.
    leader = service.submit([4], 0.5, method="mc", num_samples=100, seed=9)
    follower = service.submit([4], 0.5, method="mc", num_samples=100, seed=9)
    with service:
        a = leader.result(timeout=60)
        b = follower.result(timeout=60)
    assert b is a
    assert fresh_registry.counter("service.deduped").value == 1
    assert fresh_registry.counter("engine.queries").value == 1


# ----------------------------------------------------------------------
# Worker pool
# ----------------------------------------------------------------------
def test_pool_drains_submissions_made_before_start():
    seen = []
    pool = WorkerPool(seen.append, workers=2)
    for i in range(10):
        pool.submit(i)
    pool.start()
    pool.stop(drain=True)
    assert sorted(seen) == list(range(10))
    with pytest.raises(RuntimeError, match="stopped"):
        pool.submit(11)


def test_pool_survives_handler_exceptions():
    processed = []

    def handler(item):
        if item % 2:
            raise RuntimeError("boom")
        processed.append(item)

    pool = WorkerPool(handler, workers=1)
    pool.start()
    for i in range(6):
        pool.submit(i)
    pool.stop(drain=True)
    assert processed == [0, 2, 4]


def test_pool_validation():
    with pytest.raises(ValueError, match="workers"):
        WorkerPool(lambda item: None, workers=0)


def test_pool_restart_raises_typed_error():
    # Regression: restarting a stopped pool used to raise a bare
    # RuntimeError; supervised-restart callers need a typed surface
    # that spells out the replace-don't-revive contract.
    from repro.errors import ReproError, WorkerPoolRestartError

    pool = WorkerPool(lambda item: None, workers=1)
    pool.start()
    pool.start()  # idempotent while running
    pool.stop()
    with pytest.raises(WorkerPoolRestartError, match="new WorkerPool"):
        pool.start()
    # The typed error stays catchable by both legacy and library-wide
    # handlers.
    assert issubclass(WorkerPoolRestartError, RuntimeError)
    assert issubclass(WorkerPoolRestartError, ReproError)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
def test_counter_and_gauge_semantics():
    counter = Counter("c")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError, match="negative"):
        counter.inc(-1)
    gauge = Gauge("g")
    gauge.set(10)
    gauge.dec(3)
    gauge.inc()
    assert gauge.value == 8


def test_histogram_quantiles_and_snapshot():
    histogram = Histogram("h", buckets=[1.0, 2.0, 4.0, 8.0])
    for value in [0.5, 1.5, 1.5, 3.0, 10.0]:
        histogram.observe(value)
    snapshot = histogram.snapshot()
    assert snapshot["count"] == 5
    assert snapshot["sum"] == pytest.approx(16.5)
    assert snapshot["min"] == 0.5 and snapshot["max"] == 10.0
    assert snapshot["overflow"] == 1
    assert snapshot["p50"] <= snapshot["p90"] <= snapshot["p99"]
    # quantiles stay inside the observed range even with overflow
    assert 0.5 <= histogram.quantile(0.01) <= 10.0
    assert histogram.quantile(1.0) == 10.0
    json.dumps(snapshot)


def test_histogram_validation():
    with pytest.raises(ValueError, match="sorted"):
        Histogram("h", buckets=[2.0, 1.0])
    histogram = Histogram("h")
    with pytest.raises(ValueError, match="q must be"):
        histogram.quantile(-0.1)
    with pytest.raises(ValueError, match="q must be"):
        histogram.quantile(1.1)
    # the closed endpoints are valid: q=0 -> observed min, q=1 -> max
    assert histogram.quantile(0.0) == 0.0  # empty histogram
    assert histogram.quantile(0.5) == 0.0


def test_registry_snapshot_and_name_collisions(fresh_registry):
    fresh_registry.counter("events").inc(3)
    fresh_registry.gauge("depth").set(2)
    with fresh_registry.timer("latency"):
        pass
    with pytest.raises(ValueError, match="different instrument type"):
        fresh_registry.gauge("events")
    snapshot = fresh_registry.snapshot()
    assert snapshot["counters"]["events"] == 3
    assert snapshot["gauges"]["depth"] == 2
    assert snapshot["histograms"]["latency"]["count"] == 1
    json.dumps(snapshot)
    assert fresh_registry.names() == ["depth", "events", "latency"]
    assert get_registry() is fresh_registry


def test_service_snapshot_merges_cache_stats(medium_engine, fresh_registry):
    service = ReliabilityService(medium_engine, workers=1)
    with service:
        service.query([2], 0.5, timeout=60)
        service.query([2], 0.5, timeout=60)
    snapshot = service.metrics_snapshot()
    json.dumps(snapshot)
    assert snapshot["service"]["result_cache"]["misses"] == 1
    assert snapshot["service"]["result_cache"]["hits"] == 1
    assert "engine_cache" not in snapshot["service"]
    assert snapshot["service"]["workers"] == 1
    assert snapshot["counters"]["engine.queries"] == 1
    assert "engine.filter_seconds" in snapshot["histograms"]


# ----------------------------------------------------------------------
# repro stats --metrics
# ----------------------------------------------------------------------
def test_stats_renders_metrics_snapshot(
    medium_engine, tmp_path, capsys, fresh_registry
):
    from repro.cli import main

    service = ReliabilityService(medium_engine, workers=2)
    with service:
        for source in range(12):
            service.query(
                [source], 0.5, method="mc", num_samples=100, seed=2,
                timeout=60,
            )
    metrics_path = tmp_path / "metrics.json"
    metrics_path.write_text(json.dumps(service.metrics_snapshot()))
    assert main(["stats", "--metrics", str(metrics_path)]) == 0
    out = capsys.readouterr().out
    assert "service counters" in out
    assert "service latency histograms" in out
    assert "result cache statistics" in out
