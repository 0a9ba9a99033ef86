"""Metrics registry: counters, gauges, and latency histograms.

The serving layer (and, through it, the whole query pipeline — engine,
candidate generation, verification, the accel kernel) records its
operational signals here: how many queries ran, how long each stage
took, how often caches hit, how much sampling work was shared or shed.
Everything is snapshot-able as plain JSON (``repro serve`` exposes it
at ``GET /metrics``; ``repro stats --metrics`` pretty-prints a saved
snapshot).

Design constraints, in order:

* **stdlib only, imports nothing from repro** — core modules record
  into the registry, so this module must sit below all of them in the
  import graph (no cycles);
* **cheap when idle** — an instrument update is one dict lookup plus a
  lock-guarded add; instruments are recorded at per-query / per-batch
  granularity, never per-node or per-world;
* **thread-safe** — one registry is shared by every worker of the
  serving pool.

The process-global default registry (:func:`get_registry`) is what the
library's built-in instrumentation uses; a
:class:`~repro.service.server.ReliabilityService` snapshots it and
merges its own cache statistics.  Tests that need isolation install a
fresh registry with :func:`set_registry` (restoring the old one after).
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Default histogram buckets (seconds): sub-millisecond cache hits up
#: to minute-scale degraded queries, 1, 1.5, 2, 3, 5 and 7 per decade
#: (at most 5/3 apart).  Quantiles interpolate linearly inside a
#: bucket, so a quantile read from a histogram is good to about one
#: bucket ratio.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00015, 0.0002, 0.0003, 0.0005, 0.0007,
    0.001, 0.0015, 0.002, 0.003, 0.005, 0.007,
    0.01, 0.015, 0.02, 0.03, 0.05, 0.07,
    0.1, 0.15, 0.2, 0.3, 0.5, 0.7,
    1.0, 1.5, 2.0, 3.0, 5.0, 7.0,
    10.0, 15.0, 20.0, 30.0, 50.0, 60.0,
)


class Counter:
    """A monotonically increasing count (events, worlds, bytes...)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: Union[int, float] = 1) -> None:
        """Add *amount* (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> Union[int, float]:
        return self._value


class Gauge:
    """A value that goes up and down (in-flight queries, bytes held)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: Union[int, float]) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: Union[int, float] = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: Union[int, float] = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> Union[int, float]:
        return self._value


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max and quantiles.

    Buckets are upper bounds (``observation <= bound``); one implicit
    overflow bucket catches the rest.  Quantiles are estimated by
    linear interpolation inside the containing bucket — plenty for
    latency reporting, no per-observation storage.
    """

    __slots__ = ("name", "buckets", "_counts", "_count", "_sum",
                 "_min", "_max", "_lock")

    def __init__(
        self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(
                f"histogram {name}: buckets must be non-empty and sorted"
            )
        self.name = name
        self.buckets: Tuple[float, ...] = tuple(float(b) for b in buckets)
        self._counts = [0] * (len(self.buckets) + 1)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: Union[int, float]) -> None:
        """Record one observation."""
        value = float(value)
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    def time(self) -> "_Timer":
        """Context manager observing the elapsed wall time in seconds."""
        return _Timer(self)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float:
        """Estimated *q*-quantile (0 <= q <= 1) of the observations.

        ``q=0`` is the observed minimum and ``q=1`` the observed
        maximum, exactly; anything in between is linearly interpolated
        inside the containing bucket.  An empty histogram answers
        ``0.0`` for every *q* — SLO reports read quantiles before the
        first request lands, and that must not raise.
        """
        with self._lock:
            return self._quantile_locked(q)

    def quantiles(self, qs: Sequence[float]) -> List[float]:
        """Several quantiles under one lock acquisition.

        SLO windows export p50/p90/p99 together; computing them in one
        pass keeps the snapshot internally consistent (no observation
        can land between the p50 and the p99 of the same export).
        """
        with self._lock:
            return [self._quantile_locked(q) for q in qs]

    def _quantile_locked(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self._count == 0:
            return 0.0
        observed_min = self._min if self._min is not None else 0.0
        observed_max = self._max if self._max is not None else 0.0
        if q == 0.0:
            return observed_min
        rank = q * self._count
        cumulative = 0
        lower = observed_min
        for index, count in enumerate(self._counts):
            if count == 0:
                continue
            upper = (
                min(self.buckets[index], observed_max)
                if index < len(self.buckets)
                else observed_max
            )
            upper = max(upper, lower)
            if cumulative + count >= rank:
                fraction = (rank - cumulative) / count
                return lower + fraction * (upper - lower)
            cumulative += count
            lower = upper
        return observed_max

    def snapshot(self) -> Dict[str, object]:
        """JSON-able summary of the histogram state."""
        with self._lock:
            counts = list(self._counts)
            count, total = self._count, self._sum
            lo, hi = self._min, self._max
        summary: Dict[str, object] = {
            "count": count,
            "sum": total,
            "min": lo if lo is not None else 0.0,
            "max": hi if hi is not None else 0.0,
            "mean": (total / count) if count else 0.0,
            "buckets": {
                ("%g" % bound): counts[i]
                for i, bound in enumerate(self.buckets)
            },
            "overflow": counts[-1],
        }
        for label, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
            summary[label] = self.quantile(q) if count else 0.0
        return summary


class _Timer:
    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._histogram.observe(time.perf_counter() - self._start)


class MetricsRegistry:
    """Named instruments, created on first use, snapshot-able as JSON."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                self._check_free(name, self._counters)
                instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                self._check_free(name, self._gauges)
                instrument = self._gauges[name] = Gauge(name)
            return instrument

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                self._check_free(name, self._histograms)
                instrument = self._histograms[name] = Histogram(
                    name, buckets or DEFAULT_LATENCY_BUCKETS
                )
            return instrument

    def timer(self, name: str) -> _Timer:
        """Shorthand for ``histogram(name).time()``."""
        return self.histogram(name).time()

    def _check_free(self, name: str, owner: Dict[str, object]) -> None:
        for family in (self._counters, self._gauges, self._histograms):
            if family is not owner and name in family:
                raise ValueError(
                    f"metric {name!r} already registered with a "
                    "different instrument type"
                )

    def names(self) -> List[str]:
        """Every registered instrument name, sorted."""
        with self._lock:
            return sorted(
                list(self._counters)
                + list(self._gauges)
                + list(self._histograms)
            )

    def snapshot(self) -> Dict[str, object]:
        """One JSON-able dict of every instrument's current state."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "generated_at": time.time(),
            "counters": {
                name: c.value for name, c in sorted(counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(gauges.items())
            },
            "histograms": {
                name: h.snapshot() for name, h in sorted(histograms.items())
            },
        }

    def reset(self) -> None:
        """Drop every instrument (tests only)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: The process-global registry the library's instrumentation records to.
_DEFAULT = MetricsRegistry()
_default_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The current process-global registry."""
    return _DEFAULT


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install *registry* as the process-global one; returns the old."""
    global _DEFAULT
    with _default_lock:
        old, _DEFAULT = _DEFAULT, registry
    return old
