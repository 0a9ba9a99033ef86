"""repro.service — the concurrent query-serving layer.

Everything above a single blocking :meth:`RQTreeEngine.query` call
lives here: one shared engine served through a request queue and a
worker pool, with admission control, single-flight deduplication, a
TTL'd result cache, a metrics registry, and a stdlib-only asyncio HTTP
JSON frontend.

* :mod:`repro.service.metrics` — counters / gauges / latency
  histograms, snapshot-able as JSON (also what the core pipeline's
  built-in instrumentation records to);
* :mod:`repro.service.cache` — :class:`TTLResultCache`, the one
  result cache, keyed on the full query signature including
  ``graph.version`` (a live engine's published epoch);
* :mod:`repro.service.pool` — :class:`WorkerPool` and
  :class:`AdmissionPolicy` (max in-flight, queue deadline,
  load-shedding into degraded answers);
* :mod:`repro.service.server` — :class:`ReliabilityService`, the
  facade tying the above together;
* :mod:`repro.service.wire` — the JSON wire protocol (request
  parsing, result serialization);
* :mod:`repro.service.aio_gateway` — :class:`AioGateway`, the asyncio
  HTTP frontend ``repro serve`` runs (thousands of connections,
  explicit backpressure, streamed ``/batch`` responses).

Import note: this package's ``__init__`` is deliberately lazy (PEP
562).  Core modules (engine, verification, the accel kernel) import
``repro.service.metrics`` for instrumentation; loading the full
serving stack from there would be a cycle, so only :mod:`metrics` is
imported eagerly and everything else resolves on first attribute
access.
"""

from __future__ import annotations

from . import metrics  # noqa: F401  (eager: the instrumentation substrate)
from .metrics import MetricsRegistry, get_registry, set_registry

__all__ = [
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "ReliabilityService",
    "AioGateway",
    "AdmissionPolicy",
    "WorkerPool",
    "TTLResultCache",
    "retry_after_seconds",
]

#: Lazily resolved attribute -> (module, name) map (PEP 562).
_LAZY = {
    "ReliabilityService": ("server", "ReliabilityService"),
    "AioGateway": ("aio_gateway", "AioGateway"),
    "AdmissionPolicy": ("pool", "AdmissionPolicy"),
    "WorkerPool": ("pool", "WorkerPool"),
    "TTLResultCache": ("cache", "TTLResultCache"),
    "retry_after_seconds": ("wire", "retry_after_seconds"),
}


def __getattr__(name: str):
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    from importlib import import_module

    return getattr(import_module(f".{module_name}", __name__), attribute)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
