"""Wire-format helpers: the JSON protocol of the HTTP frontend.

This module is the single definition of the protocol that
:mod:`repro.service.aio_gateway` speaks: request-body parsing (query
fields, budget fields) and response serialization live here, apart
from the socket handling, and the conformance suite
(``tests/test_http_conformance.py``) holds the gateway to it.
"""

from __future__ import annotations

import json
import random
from typing import Dict, Optional, Tuple

from ..core.engine import QueryResult
from ..resilience.budget import QueryBudget

__all__ = [
    "BadRequest",
    "observe_request",
    "parse_query_body",
    "parse_update_body",
    "result_to_json",
    "retry_after_seconds",
    "update_to_json",
]

#: Request fields forwarded verbatim to :meth:`ReliabilityService.submit`;
#: any other body field is ignored.
_QUERY_FIELDS = (
    "method", "num_samples", "seed", "multi_source_mode", "max_hops",
)


class BadRequest(ValueError):
    """A malformed request body; maps to HTTP 400."""


def result_to_json(result: QueryResult) -> Dict[str, object]:
    """The wire form of a :class:`QueryResult` (JSON-able dict).

    The ``quality`` block is a stable contract: monitoring pipelines
    alert off it, so its eight keys are always present with these exact
    names, whatever the method or failure history of the
    query.  ``estimator`` is the estimator that actually ran (it can
    differ from ``method`` under ``"auto"`` planning or the exact
    estimator's fallback) and ``planner_reason`` says why; ``epoch`` is
    the update-plane generation the answer was computed against (0 on a
    frozen engine).  The same values also appear as legacy top-level
    fields.
    """
    return {
        "nodes": sorted(result.nodes),
        "eta": result.eta,
        "sources": list(result.sources),
        "method": result.method,
        "estimator": result.estimator,
        "num_candidates": len(result.candidate_result.candidates),
        "candidate_seconds": result.candidate_seconds,
        "verification_seconds": result.verification_seconds,
        "height_ratio": result.height_ratio,
        "candidate_ratio": result.candidate_ratio,
        "statuses": {str(n): s for n, s in sorted(result.statuses.items())},
        "degraded": result.degraded,
        "degraded_reason": result.degraded_reason,
        "worlds_used": result.worlds_used,
        "achieved_confidence": result.achieved_confidence,
        "quality": {
            "achieved_confidence": result.achieved_confidence,
            "worlds_used": result.worlds_used,
            "degraded": result.degraded,
            "degraded_reason": result.degraded_reason,
            "shards_recovered": result.shards_recovered,
            "estimator": result.estimator,
            "planner_reason": result.planner_reason,
            "epoch": result.epoch,
        },
    }


#: Known endpoint paths; anything else is bucketed as ``other`` so a
#: scanner probing random URLs cannot mint unbounded metric names.
_KNOWN_PATHS = frozenset(
    {"/query", "/update", "/batch", "/metrics", "/healthz"}
)


def observe_request(path: str, status: int, seconds: float) -> None:
    """Record one HTTP exchange into the ``service.http.*`` namespace.

    The gateway calls this once per request, after the response is
    fully written, so the latency includes serialization and the socket
    write — the number a client-side SLO actually experiences minus the
    network.  Recorded instruments:

    * ``service.http.requests`` — every exchange;
    * ``service.http.request_seconds`` — end-to-end handler latency
      (one histogram across endpoints; per-endpoint splits come from
      the counters, which are enough to attribute a shift);
    * ``service.http.path.<endpoint>`` — per-endpoint request count
      (``query`` / ``update`` / ``batch`` / ``metrics`` / ``healthz``
      / ``other``);
    * ``service.http.status.<class>`` — response-status class
      (``2xx`` / ``4xx`` / ``5xx``).
    """
    from .metrics import get_registry

    registry = get_registry()
    registry.counter("service.http.requests").inc()
    registry.histogram("service.http.request_seconds").observe(seconds)
    endpoint = path.lstrip("/") if path in _KNOWN_PATHS else "other"
    registry.counter(f"service.http.path.{endpoint}").inc()
    registry.counter(f"service.http.status.{status // 100}xx").inc()


#: Jitter source for Retry-After hints.  Advisory wall-clock backoff is
#: the one place the library *wants* nondeterminism: synchronized
#: retries from shed clients would re-create the very burst that shed
#: them.
_retry_rng = random.Random()


def retry_after_seconds(
    pressure: float, rng: Optional[random.Random] = None
) -> float:
    """A jittered ``Retry-After`` hint scaled by shed *pressure*.

    *pressure* is the service's current overload fraction in ``[0, 1]``
    (in-flight / max-in-flight; a tripped connection cap is 1.0).  The
    base hint grows linearly from 0.25s (idle) to 2.25s (saturated) and
    is then spread by a ±50% jitter so a burst of shed clients does not
    return in lockstep.
    """
    pressure = min(1.0, max(0.0, pressure))
    base = 0.25 + 2.0 * pressure
    jitter = (rng if rng is not None else _retry_rng).uniform(0.5, 1.5)
    return round(base * jitter, 3)


def _parse_budget(body: Dict[str, object]) -> Optional[QueryBudget]:
    deadline_ms = body.get("deadline_ms")
    max_worlds = body.get("max_worlds")
    max_candidate_nodes = body.get("max_candidate_nodes")
    if deadline_ms is None and max_worlds is None and max_candidate_nodes is None:
        return None
    return QueryBudget(
        deadline_seconds=(
            None if deadline_ms is None else float(deadline_ms) / 1000.0
        ),
        max_worlds=max_worlds,
        max_candidate_nodes=max_candidate_nodes,
    )


def parse_query_body(
    raw: bytes,
) -> Tuple[object, float, Dict[str, object], Optional[QueryBudget]]:
    """Decode one ``POST /query`` body.

    Returns ``(sources, eta, submit_kwargs, budget)``; raises
    :class:`BadRequest` (with a caller-safe message) for anything
    malformed.  Parsing and validation errors are deliberately
    indistinguishable from the caller's perspective — both are a 400.
    """
    return parse_query_object(_decode_object(raw))


def parse_query_object(
    body: Dict[str, object],
) -> Tuple[object, float, Dict[str, object], Optional[QueryBudget]]:
    """The dict-level half of :func:`parse_query_body` (used by the
    batch endpoint, where many query objects share one JSON body)."""
    try:
        if not isinstance(body, dict):
            raise ValueError("request body must be a JSON object")
        sources = body["sources"]
        eta = float(body["eta"])
        kwargs = {
            field: body[field] for field in _QUERY_FIELDS if field in body
        }
        budget = _parse_budget(body)
    except (KeyError, TypeError, ValueError) as error:
        raise BadRequest(f"bad request: {error}") from error
    return sources, eta, kwargs, budget


def parse_update_body(raw: bytes) -> list:
    """Decode one ``POST /update`` body into a list of update ops.

    Accepts either a bare JSON array of op objects or a wrapper object
    ``{"updates": [...]}``.  Each op is an object with ``op`` (``set``,
    ``insert``, or ``delete``), ``u``, ``v``, and — for upserts — ``p``;
    validation of the values themselves happens in
    :func:`repro.live.updates.normalize_updates`, inside the engine's
    atomic admission step.
    """
    try:
        body = json.loads(raw or b"")
    except ValueError as error:
        raise BadRequest(f"bad request: {error}") from error
    if isinstance(body, dict):
        body = body.get("updates")
    if not isinstance(body, list) or not body:
        raise BadRequest(
            "bad request: expected a non-empty JSON array of update ops "
            '(or {"updates": [...]})'
        )
    return body


def update_to_json(outcome: Dict[str, int]) -> Dict[str, object]:
    """The wire form of an accepted update batch."""
    return {
        "accepted": True,
        "epoch": outcome["epoch"],
        "ops": outcome["ops"],
    }


def _decode_object(raw: bytes) -> Dict[str, object]:
    try:
        body = json.loads(raw or b"{}")
    except ValueError as error:
        raise BadRequest(f"bad request: {error}") from error
    if not isinstance(body, dict):
        raise BadRequest("bad request: request body must be a JSON object")
    return body
