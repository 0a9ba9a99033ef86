"""Open-loop asyncio load driver: hold the schedule, record the truth.

:func:`drive` replays a :class:`~repro.loadgen.generator.Schedule`
against a running :class:`~repro.service.aio_gateway.AioGateway` (a
``repro serve`` process or an in-process gateway) and folds every
response into an :class:`~repro.loadgen.slo.SLOTracker`.

The driver is **open-loop**: each request is dispatched at its
scheduled offset whether or not earlier requests have completed.  A
closed-loop client (send, wait, send) silently throttles itself when
the service slows down, which flatters tail latency exactly when it
matters most — the coordinated-omission trap.  Here, a slow service
accumulates in-flight requests instead, and the p99 in the report is
the p99 a real caller population would have seen.  The one concession
is ``max_in_flight``: a hard cap on concurrent sockets so a wedged
service exhausts a semaphore, not the fd table; time spent queued on
that semaphore still counts toward the request's latency, so the cap
cannot hide a stall.

Storm control events are handled inline: ``storm_start`` arms a seeded
:class:`~repro.resilience.faultinject.FaultPlan` (process-global, so it
only reaches a service running *in this process* — the CLI warns and
skips storms when pointed at a remote ``--url``), ``storm_end``
disarms it.  The service's metrics endpoint is snapshotted before and
after the run so the report's cache/shed numbers are deltas for this
run alone.

The transport is a deliberately minimal HTTP/1.1 client over
``asyncio.open_connection`` — one connection per request with
``Connection: close``.  No pooling: pooling couples request N's
latency to request N-1's socket state, and at bench scale a loopback
TCP handshake is noise.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from ..resilience.faultinject import FaultPlan
from .generator import Schedule
from .slo import SLOTargets, SLOTracker

__all__ = ["drive", "DriveError"]


class DriveError(RuntimeError):
    """The run could not produce a report (bad URL, nothing sent)."""


def _split_url(url: str) -> Tuple[str, int]:
    parts = urlsplit(url)
    if parts.scheme not in ("http", ""):
        raise DriveError(f"only http:// targets are supported, got {url!r}")
    host = parts.hostname
    if not host:
        raise DriveError(f"target URL has no host: {url!r}")
    return host, parts.port or 80


async def _http_exchange(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Optional[bytes],
    timeout: float,
) -> Tuple[int, Optional[dict]]:
    """One request/response over a fresh connection; returns
    ``(status, parsed_json_or_None)``."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout
    )
    try:
        payload = body or b""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("ascii")
        writer.write(head + payload)
        await asyncio.wait_for(writer.drain(), timeout)

        status_line = await asyncio.wait_for(reader.readline(), timeout)
        if not status_line:
            raise ConnectionError("empty response")
        status = int(status_line.split()[1])
        content_length: Optional[int] = None
        while True:
            line = await asyncio.wait_for(reader.readline(), timeout)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                content_length = int(value.strip())
        if content_length is not None:
            raw = await asyncio.wait_for(
                reader.readexactly(content_length), timeout
            )
        else:  # Connection: close framing
            raw = await asyncio.wait_for(reader.read(), timeout)
        try:
            parsed = json.loads(raw) if raw else None
        except ValueError:
            parsed = None
        return status, parsed if isinstance(parsed, dict) else None
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass


async def _drive_async(
    schedule: Schedule,
    url: str,
    tracker: SLOTracker,
    *,
    arm_storms: bool,
    timeout_seconds: float,
    max_in_flight: int,
) -> float:
    """Dispatch the schedule; returns wall seconds (start → last reply)."""
    host, port = _split_url(url)
    semaphore = asyncio.Semaphore(max_in_flight)
    loop = asyncio.get_running_loop()

    async def send_one(spec) -> None:
        path = "/update" if spec.kind == "update" else "/query"
        scheduled = start + spec.offset
        async with semaphore:
            # Lag is measured inside the semaphore: if the cap is what
            # delayed us, that *is* harness lag and must be visible.
            begun = loop.time()
            tracker.observe_lag(begun - scheduled)
            body = json.dumps(spec.body).encode("utf-8")
            try:
                status, payload = await _http_exchange(
                    host, port, "POST", path, body, timeout_seconds
                )
            except asyncio.TimeoutError:
                tracker.observe_error(spec.kind, "timeout")
                return
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                tracker.observe_error(spec.kind, "connection")
                return
            tracker.observe(
                spec.kind, loop.time() - begun, status, payload
            )

    metrics_before: Optional[dict] = None
    try:
        _, metrics_before = await _http_exchange(
            host, port, "GET", "/metrics", None, timeout_seconds
        )
    except (ConnectionError, OSError, asyncio.TimeoutError) as error:
        raise DriveError(
            f"target {url} is not answering /metrics: {error}"
        ) from error

    tasks: List[asyncio.Task] = []
    active_plan: Optional[FaultPlan] = None
    start = loop.time()
    try:
        for spec in schedule.requests:
            delay = (start + spec.offset) - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            if spec.kind == "storm_start":
                if not arm_storms or active_plan is not None:
                    continue
                plan = FaultPlan.seeded(
                    int(spec.body.get("seed", 0)),
                    [str(p) for p in spec.body.get("points", [])],
                    probability=float(spec.body.get("probability", 0.3)),
                )
                try:
                    plan.__enter__()
                except RuntimeError:
                    # Another plan (a test fixture, say) is already
                    # active; the storm yields rather than fights.
                    continue
                active_plan = plan
                tracker.note_storm(True)
            elif spec.kind == "storm_end":
                if active_plan is not None:
                    active_plan.__exit__(None, None, None)
                    active_plan = None
            else:
                tasks.append(asyncio.ensure_future(send_one(spec)))
        if tasks:
            await asyncio.gather(*tasks)
    finally:
        if active_plan is not None:
            active_plan.__exit__(None, None, None)
    wall = loop.time() - start

    metrics_after: Optional[dict] = None
    try:
        _, metrics_after = await _http_exchange(
            host, port, "GET", "/metrics", None, timeout_seconds
        )
    except (ConnectionError, OSError, asyncio.TimeoutError):
        pass  # the report just loses its cache/shed deltas
    tracker.set_metrics_window(metrics_before, metrics_after)
    return wall


def drive(
    schedule: Schedule,
    url: str,
    *,
    targets: Optional[SLOTargets] = None,
    tracker: Optional[SLOTracker] = None,
    arm_storms: bool = True,
    timeout_seconds: float = 30.0,
    max_in_flight: int = 128,
) -> Dict[str, object]:
    """Run *schedule* against *url*; returns the SLO run report.

    Blocking wrapper around the asyncio driver — callable from the CLI,
    benches, and tests without an event loop of their own.  *url* must
    point at the service's HTTP gateway.
    """
    if max_in_flight < 1:
        raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")
    tracker = tracker or SLOTracker()
    wall = asyncio.run(
        _drive_async(
            schedule,
            url,
            tracker,
            arm_storms=arm_storms,
            timeout_seconds=timeout_seconds,
            max_in_flight=max_in_flight,
        )
    )
    return tracker.report(
        wall_seconds=wall,
        targets=targets,
        schedule_meta={
            "profile": schedule.profile,
            "seed": schedule.seed,
            "duration_seconds": schedule.duration_seconds,
            "target_qps": schedule.target_qps,
            "offered_qps": round(schedule.offered_qps, 3),
            "num_nodes": schedule.num_nodes,
            "events": len(schedule.requests),
        },
    )
