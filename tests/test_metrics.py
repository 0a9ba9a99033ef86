"""Metrics primitives and telemetry schemas.

Two families of guarantees:

* :class:`Histogram` quantile edge cases — empty, single-sample, the
  exact ``q=0`` / ``q=1`` endpoints, rejection outside ``[0, 1]``, and
  the batched :meth:`Histogram.quantiles` form the SLO exporter uses.
* Schema pins — ``ReliabilityService.metrics_snapshot()`` and the
  loadgen SLO run report are read mechanically (by the ``/metrics``
  endpoint's consumers, the CI gate, and the bench trajectory check),
  so their key sets are contracts, not implementation details.
"""

from __future__ import annotations

import json
import math
import random

import pytest

from repro.service.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)


# ----------------------------------------------------------------------
# Histogram.quantile edge cases
# ----------------------------------------------------------------------
def test_quantile_empty_histogram_is_zero_everywhere():
    histogram = Histogram("t.empty")
    for q in (0.0, 0.5, 0.99, 1.0):
        assert histogram.quantile(q) == 0.0


def test_quantile_single_sample_is_that_sample():
    histogram = Histogram("t.single")
    histogram.observe(0.037)
    for q in (0.0, 0.25, 0.5, 0.99, 1.0):
        assert histogram.quantile(q) == pytest.approx(0.037)


def test_quantile_endpoints_are_exact_observed_extremes():
    histogram = Histogram("t.extremes")
    for value in (0.004, 0.11, 0.52, 3.7):
        histogram.observe(value)
    # q=0 / q=1 answer the *observed* min/max exactly — not a bucket
    # boundary — because the SLO report's "max" column must match what
    # a client actually experienced.
    assert histogram.quantile(0.0) == pytest.approx(0.004)
    assert histogram.quantile(1.0) == pytest.approx(3.7)


def test_quantile_interpolates_within_observed_range():
    histogram = Histogram("t.range")
    for value in (0.01, 0.02, 0.03, 0.5, 0.9):
        histogram.observe(value)
    for q in (0.1, 0.5, 0.9, 0.99):
        assert 0.01 <= histogram.quantile(q) <= 0.9


def test_quantile_rejects_out_of_range():
    histogram = Histogram("t.bad")
    histogram.observe(1.0)
    with pytest.raises(ValueError):
        histogram.quantile(-0.01)
    with pytest.raises(ValueError):
        histogram.quantile(1.01)


def test_quantiles_batch_matches_individual_calls():
    histogram = Histogram("t.batch")
    for value in (0.002, 0.02, 0.2, 2.0, 20.0):
        histogram.observe(value)
    qs = (0.0, 0.5, 0.9, 0.99, 1.0)
    assert histogram.quantiles(qs) == [histogram.quantile(q) for q in qs]


@pytest.mark.parametrize("median", [0.0003, 0.0012, 0.02, 2.0])
def test_default_buckets_resolve_p90_to_one_bucket_ratio(median):
    ratio = max(
        upper / lower
        for lower, upper in zip(
            DEFAULT_LATENCY_BUCKETS, DEFAULT_LATENCY_BUCKETS[1:]
        )
    )
    assert ratio <= 5 / 3
    rng = random.Random(11)
    sample = sorted(median * rng.lognormvariate(0.0, 0.4) for _ in range(2000))
    histogram = Histogram("t.p90")
    for value in sample:
        histogram.observe(value)
    exact = sample[math.ceil(0.9 * len(sample)) - 1]
    assert exact / ratio <= histogram.quantile(0.9) <= exact * ratio


def test_quantiles_batch_on_empty_histogram():
    assert Histogram("t.batch_empty").quantiles((0.0, 0.5, 1.0)) == [
        0.0, 0.0, 0.0,
    ]


def test_histogram_snapshot_carries_quantiles():
    histogram = Histogram("t.snap")
    for value in (0.01, 0.05, 0.2):
        histogram.observe(value)
    snapshot = histogram.snapshot()
    for key in ("count", "sum", "min", "max", "mean", "buckets",
                "overflow", "p50", "p90", "p99"):
        assert key in snapshot
    assert snapshot["count"] == 3
    assert snapshot["min"] == pytest.approx(0.01)
    assert snapshot["max"] == pytest.approx(0.2)


# ----------------------------------------------------------------------
# metrics_snapshot() schema pin
# ----------------------------------------------------------------------
@pytest.fixture()
def fresh_registry():
    old = set_registry(MetricsRegistry())
    try:
        yield get_registry()
    finally:
        set_registry(old)


def test_service_metrics_snapshot_schema(fresh_registry, medium_engine):
    from repro.service.server import ReliabilityService

    service = ReliabilityService(medium_engine, workers=1)
    service.start()
    try:
        service.query([3], 0.5, method="lb")
        snapshot = service.metrics_snapshot()
    finally:
        service.stop()

    # Top level: the registry's three instrument families plus the
    # serving-layer section.  Renaming any of these breaks every
    # /metrics consumer.
    for key in ("generated_at", "counters", "gauges", "histograms",
                "service"):
        assert key in snapshot, key
    service_section = snapshot["service"]
    for key in ("workers", "in_flight", "queue_depth",
                "result_cache", "result_cache_entries"):
        assert key in service_section, key
    for key in ("hits", "misses", "bypasses", "evictions",
                "expirations", "hit_rate"):
        assert key in service_section["result_cache"], key
    json.dumps(snapshot)  # and the whole thing must be JSON-able


# ----------------------------------------------------------------------
# SLO run-report schema pin
# ----------------------------------------------------------------------
def test_slo_report_schema(fresh_registry):
    from repro.loadgen.slo import REPORT_SCHEMA_VERSION, SLOTargets, SLOTracker

    tracker = SLOTracker()
    tracker.observe("query", 0.012, 200, {
        "quality": {"degraded": False, "worlds_used": 64,
                    "achieved_confidence": 0.97, "shards_recovered": 0},
    })
    tracker.observe("query", 0.045, 200, {
        "quality": {"degraded": True, "degraded_reason": "shed:queue",
                    "worlds_used": 0},
    })
    tracker.observe("update", 0.002, 200, {"accepted": True, "epoch": 2})
    tracker.observe_error("query", "timeout")
    tracker.observe_lag(0.001)
    tracker.note_storm(True)
    report = tracker.report(
        wall_seconds=1.0,
        targets=SLOTargets(p99_ms=1000.0, degraded_rate=0.5),
    )

    assert report["schema_version"] == REPORT_SCHEMA_VERSION
    for key in ("schema_version", "schedule", "wall_seconds", "requests",
                "throughput", "latency_ms", "open_loop", "degraded",
                "errors", "shed", "cache", "quality", "error_budget",
                "gates"):
        assert key in report, key
    for key in ("completed", "queries", "updates", "errors", "degraded",
                "shed", "recovered_answers", "storms"):
        assert key in report["requests"], key
    for key in ("p50", "p90", "p99", "max"):
        assert key in report["latency_ms"], key
    assert set(report["gates"]) == {"targets", "breaches", "ok"}
    assert set(report["quality"]) == {
        "worlds_used_total", "mean_achieved_confidence"
    }
    json.dumps(report)

    # And the arithmetic the gate relies on:
    assert report["requests"]["completed"] == 3
    assert report["requests"]["errors"] == 1
    assert report["requests"]["shed"] == 1
    assert report["degraded"]["by_reason"] == {"shed:queue": 1}
    assert report["errors"]["by_type"] == {"timeout": 1}
    # budget: target 0.5 over 3 completed -> 1.5 allowed; degraded(1) +
    # errors(1) = 2 spent -> burn 2/1.5
    assert report["error_budget"]["spent_bad"] == 2
    assert report["error_budget"]["burn"] == pytest.approx(2 / 1.5, abs=1e-3)


def test_slo_degraded_buckets_drop_per_query_counts(fresh_registry):
    """One fault makes one bucket: reasons that differ only in a
    per-query count (a fault's hit number, a budget's progress) share a
    ``by_reason`` key."""
    from repro.errors import InjectedFault, SamplingKernelError
    from repro.loadgen.slo import SLOTracker

    def degraded(reason):
        return {"quality": {"degraded": True, "degraded_reason": reason}}

    tracker = SLOTracker()
    for hit in (1, 2):
        tracker.observe("query", 0.01, 200, degraded(str(
            SamplingKernelError(InjectedFault("mc.kernel.chunk", hit))
        )))
    for done in (256, 512):
        tracker.observe("query", 0.01, 200, degraded(
            f"deadline expired during MC verification ({done}/1000 worlds)"
        ))
    report = tracker.report(wall_seconds=1.0)
    assert report["degraded"]["by_reason"] == {
        "sampling kernel failed: InjectedFault: injected fault at point "
        "'mc.kernel.chunk'": 2,
        "deadline expired during MC verification": 2,
    }


def test_slo_gates_breach_detection(fresh_registry):
    from repro.loadgen.slo import SLOTargets, SLOTracker

    tracker = SLOTracker()
    for _ in range(10):
        tracker.observe("query", 0.050, 200, {"quality": {}})
    report = tracker.report(
        wall_seconds=1.0,
        targets=SLOTargets(p99_ms=10.0, min_qps=100.0),
    )
    assert not report["gates"]["ok"]
    joined = " ".join(report["gates"]["breaches"])
    assert "p99_ms" in joined and "min_qps" in joined

    clean = tracker.report(wall_seconds=1.0, targets=SLOTargets())
    assert clean["gates"]["ok"] and clean["gates"]["breaches"] == []


def test_slo_cache_window_uses_deltas(fresh_registry):
    from repro.loadgen.slo import SLOTracker

    tracker = SLOTracker()
    tracker.observe("query", 0.01, 200, {"quality": {}})
    before = {"service": {"result_cache": {"hits": 100, "misses": 400}},
              "counters": {"service.shed": 7}}
    after = {"service": {"result_cache": {"hits": 130, "misses": 410}},
             "counters": {"service.shed": 9}}
    tracker.set_metrics_window(before, after)
    report = tracker.report(wall_seconds=1.0)
    assert report["cache"]["hits"] == 30
    assert report["cache"]["misses"] == 10
    assert report["cache"]["hit_rate"] == pytest.approx(0.75)
    assert report["shed"]["served_by_service"] == 2
