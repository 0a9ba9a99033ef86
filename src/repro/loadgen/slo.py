"""SLO accounting: fold per-response quality into one run report.

The serving stack already tells every client how good its answer was —
the stable 8-key ``quality`` block on each wire response (PR 7's
telemetry contract).  :class:`SLOTracker` is the consumer side of that
contract: the load driver feeds it one observation per request
(latency, HTTP status, parsed reply) plus the service's metrics
snapshots from both ends of the run, and it folds everything into a
structured, JSON-stable :class:`report <SLOTracker.report>`:

* latency quantiles (p50/p90/p99/max) vs the declared targets;
* degraded-answer rate, broken down by ``degraded_reason`` — a shed
  query, an expired deadline, and a dead shard are different incidents
  even though all three are "degraded" (per-query counts in a reason,
  such as ``(256/1000 worlds)`` or ``(hit #7)``, are dropped from the
  bucket key so one fault makes one bucket);
* cache hit rate and shed rate over the run window (metric deltas, so
  a long-lived service's history does not pollute the run);
* error-budget burn: how much of the allowed badness this run spent.

The report's shape is a contract of its own — ``schema_version`` plus
a fixed key set, pinned by ``tests/test_metrics.py`` — because the CI
gate and the bench trajectory check both read it mechanically.

Everything is also mirrored into the ``loadgen.*`` metric namespace so
a run shows up in ``GET /metrics`` next to the service's own signals.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..service.metrics import get_registry

__all__ = ["SLOTargets", "SLOTracker", "REPORT_SCHEMA_VERSION"]

#: Bumped whenever the report's key set changes incompatibly.
REPORT_SCHEMA_VERSION = 2

#: Per-query counts inside a degraded reason — budget progress such as
#: ``(256/1000 worlds)``, and a fault's ``(hit #N)`` — stripped from
#: ``degraded.by_reason`` keys.
_PER_QUERY_COUNTS = re.compile(r"\s*\((?:hit #\d+|\d+/\d+ [a-z]+)\)")


@dataclass(frozen=True)
class SLOTargets:
    """Declared service-level objectives; ``None`` disables a gate.

    *degraded_rate* doubles as the error-budget denominator: a target
    of 0.05 over 1000 requests grants a budget of 50 degraded answers,
    and the report's ``error_budget.burn`` says what fraction this run
    spent (>1.0 is a breach).
    """

    p50_ms: Optional[float] = None
    p99_ms: Optional[float] = None
    degraded_rate: Optional[float] = None
    error_rate: Optional[float] = None
    min_qps: Optional[float] = None

    def as_dict(self) -> Dict[str, Optional[float]]:
        return {
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "degraded_rate": self.degraded_rate,
            "error_rate": self.error_rate,
            "min_qps": self.min_qps,
        }


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1)))
    )
    return sorted_values[index]


class SLOTracker:
    """Accumulates per-request observations; renders one run report.

    Thread-safe: the asyncio driver is single-threaded, but the CLI's
    in-process mode may feed observations from worker callbacks, and a
    lock per observation is cheap at request granularity.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._latencies: List[float] = []
        self._lags: List[float] = []
        self._counts: Dict[str, int] = {
            "query": 0, "update": 0, "errors": 0, "degraded": 0,
            "shed": 0, "recovered": 0,
        }
        self._degraded_reasons: Dict[str, int] = {}
        self._error_types: Dict[str, int] = {}
        self._worlds_used = 0
        self._confidence_sum = 0.0
        self._confidence_n = 0
        self._storms = 0
        self._metrics_before: Optional[dict] = None
        self._metrics_after: Optional[dict] = None

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def observe(
        self,
        kind: str,
        latency_seconds: float,
        status: int,
        payload: Optional[dict],
    ) -> None:
        """Record one completed exchange (the reply may be an error)."""
        registry = get_registry()
        registry.counter("loadgen.requests").inc()
        registry.histogram("loadgen.latency_seconds").observe(
            latency_seconds
        )
        quality = (payload or {}).get("quality") or {}
        degraded = bool(quality.get("degraded"))
        reason = quality.get("degraded_reason") or ""
        shed = degraded and str(reason).startswith("shed:")
        with self._lock:
            self._latencies.append(latency_seconds)
            if kind in self._counts:
                self._counts[kind] += 1
            if status >= 400 or (payload or {}).get("error"):
                self._counts["errors"] += 1
                label = f"http_{status}" if status >= 400 else "reply_error"
                self._error_types[label] = (
                    self._error_types.get(label, 0) + 1
                )
                registry.counter("loadgen.errors").inc()
                return
            if degraded:
                self._counts["degraded"] += 1
                key = _PER_QUERY_COUNTS.sub("", str(reason)) or "unspecified"
                self._degraded_reasons[key] = (
                    self._degraded_reasons.get(key, 0) + 1
                )
                registry.counter("loadgen.degraded").inc()
            if shed:
                self._counts["shed"] += 1
            self._counts["recovered"] += int(
                quality.get("shards_recovered") or 0
            )
            self._worlds_used += int(quality.get("worlds_used") or 0)
            confidence = quality.get("achieved_confidence")
            if confidence is not None:
                self._confidence_sum += float(confidence)
                self._confidence_n += 1

    def observe_error(self, kind: str, error_type: str) -> None:
        """Record a transport-level failure (no HTTP reply at all)."""
        get_registry().counter("loadgen.errors").inc()
        with self._lock:
            if kind in self._counts:
                self._counts[kind] += 1
            self._counts["errors"] += 1
            self._error_types[error_type] = (
                self._error_types.get(error_type, 0) + 1
            )

    def observe_lag(self, seconds: float) -> None:
        """Dispatch lag: scheduled offset vs actual send time.  Large
        lags mean the *harness* fell behind — the open-loop promise
        broke and every latency after that point is suspect."""
        get_registry().histogram("loadgen.lag_seconds").observe(
            max(seconds, 0.0)
        )
        with self._lock:
            self._lags.append(max(seconds, 0.0))

    def note_storm(self, active: bool) -> None:
        if active:
            get_registry().counter("loadgen.storms").inc()
            with self._lock:
                self._storms += 1

    def set_metrics_window(
        self, before: Optional[dict], after: Optional[dict]
    ) -> None:
        """Service metrics snapshots bracketing the run (for deltas)."""
        with self._lock:
            self._metrics_before = before
            self._metrics_after = after

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @staticmethod
    def _cache_stats(snapshot: Optional[dict]) -> Dict[str, float]:
        service = (snapshot or {}).get("service") or {}
        stats = service.get("result_cache") or {}
        return {
            "hits": stats.get("hits", 0),
            "misses": stats.get("misses", 0),
        }

    @staticmethod
    def _counter(snapshot: Optional[dict], name: str) -> float:
        return ((snapshot or {}).get("counters") or {}).get(name, 0)

    def report(
        self,
        *,
        wall_seconds: float,
        targets: Optional[SLOTargets] = None,
        schedule_meta: Optional[dict] = None,
    ) -> Dict[str, object]:
        """The structured run report (see the module docstring)."""
        targets = targets or SLOTargets()
        with self._lock:
            latencies = sorted(self._latencies)
            lags = sorted(self._lags)
            counts = dict(self._counts)
            degraded_reasons = dict(
                sorted(self._degraded_reasons.items())
            )
            error_types = dict(sorted(self._error_types.items()))
            worlds_used = self._worlds_used
            confidence_sum = self._confidence_sum
            confidence_n = self._confidence_n
            storms = self._storms
            before, after = self._metrics_before, self._metrics_after

        completed = len(latencies)
        achieved_qps = completed / wall_seconds if wall_seconds > 0 else 0.0
        degraded_rate = counts["degraded"] / completed if completed else 0.0
        error_rate = counts["errors"] / completed if completed else 0.0
        shed_rate = counts["shed"] / completed if completed else 0.0

        cache_before = self._cache_stats(before)
        cache_after = self._cache_stats(after)
        cache_hits = cache_after["hits"] - cache_before["hits"]
        cache_misses = cache_after["misses"] - cache_before["misses"]
        cache_total = cache_hits + cache_misses
        shed_served = (
            self._counter(after, "service.shed")
            - self._counter(before, "service.shed")
        )

        budget_target = targets.degraded_rate
        allowed_bad = (
            budget_target * completed if budget_target is not None else None
        )
        bad = counts["degraded"] + counts["errors"]
        burn = (
            bad / allowed_bad
            if allowed_bad
            else (None if allowed_bad is None else float(bad > 0))
        )

        report: Dict[str, object] = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "schedule": schedule_meta or {},
            "wall_seconds": round(wall_seconds, 4),
            "requests": {
                "completed": completed,
                "queries": counts["query"],
                "updates": counts["update"],
                "errors": counts["errors"],
                "degraded": counts["degraded"],
                "shed": counts["shed"],
                "recovered_answers": counts["recovered"],
                "storms": storms,
            },
            "throughput": {
                "achieved_qps": round(achieved_qps, 3),
            },
            "latency_ms": {
                label: round(_percentile(latencies, q) * 1000.0, 3)
                for label, q in (
                    ("p50", 0.50), ("p90", 0.90), ("p99", 0.99),
                    ("max", 1.0),
                )
            },
            "open_loop": {
                "p99_lag_ms": round(
                    _percentile(lags, 0.99) * 1000.0, 3
                ),
                "max_lag_ms": round(
                    _percentile(lags, 1.0) * 1000.0, 3
                ),
            },
            "degraded": {
                "rate": round(degraded_rate, 5),
                "by_reason": degraded_reasons,
            },
            "errors": {
                "rate": round(error_rate, 5),
                "by_type": error_types,
            },
            "shed": {
                "rate": round(shed_rate, 5),
                "served_by_service": shed_served,
            },
            "cache": {
                "hits": cache_hits,
                "misses": cache_misses,
                "hit_rate": (
                    round(cache_hits / cache_total, 5) if cache_total else 0.0
                ),
            },
            "quality": {
                "worlds_used_total": worlds_used,
                "mean_achieved_confidence": (
                    round(confidence_sum / confidence_n, 5)
                    if confidence_n else 0.0
                ),
            },
            "error_budget": {
                "target_degraded_rate": budget_target,
                "allowed_bad": allowed_bad,
                "spent_bad": bad,
                "burn": round(burn, 4) if burn is not None else None,
            },
        }
        report["gates"] = self._gates(report, targets)
        return report

    @staticmethod
    def _gates(
        report: Dict[str, object], targets: SLOTargets
    ) -> Dict[str, object]:
        """Evaluate every declared target against the report."""
        breaches: List[str] = []
        latency = report["latency_ms"]
        throughput = report["throughput"]
        checks = (
            ("p50_ms", targets.p50_ms, latency["p50"], "<="),
            ("p99_ms", targets.p99_ms, latency["p99"], "<="),
            (
                "degraded_rate", targets.degraded_rate,
                report["degraded"]["rate"], "<=",
            ),
            (
                "error_rate", targets.error_rate,
                report["errors"]["rate"], "<=",
            ),
            (
                "min_qps", targets.min_qps,
                throughput["achieved_qps"], ">=",
            ),
        )
        for name, target, actual, direction in checks:
            if target is None:
                continue
            ok = actual <= target if direction == "<=" else actual >= target
            if not ok:
                breaches.append(
                    f"{name}: {actual:g} violates {direction} {target:g}"
                )
        return {
            "targets": targets.as_dict(),
            "breaches": breaches,
            "ok": not breaches,
        }
