"""Stdlib-only JSON/HTTP frontend for the serving layer.

``repro serve`` exposes a :class:`ReliabilityService` over plain
``http.server`` — no web framework, in keeping with the repo's
no-new-dependencies rule.  Three endpoints:

* ``POST /query`` — body is a JSON object with the same fields as
  :meth:`ReliabilityService.submit` (``sources``, ``eta``, optional
  ``method`` / ``num_samples`` / ``seed`` / ``multi_source_mode`` /
  ``max_hops``; other fields are ignored) plus optional budget fields
  (``deadline_ms`` / ``max_worlds`` / ``max_candidate_nodes``).
  Replies 200 with the serialized :class:`QueryResult` (degraded
  answers included — shedding is not an HTTP error), or 400 with
  ``{"error": ...}`` for malformed requests.
* ``POST /update`` — body is a JSON array of arc-update ops (or
  ``{"updates": [...]}``); replies 200 with ``{"accepted": true,
  "epoch": E, "ops": N}`` when the service wraps a live engine, 400
  otherwise (and for malformed or rejected batches — rejection is
  atomic, so a 400 means no op in the batch was applied).
* ``GET /metrics`` — the service's merged metrics snapshot as JSON.
* ``GET /healthz`` — liveness plus graph shape (and the serving epoch
  when the engine is live).

The HTTP layer adds no queueing of its own: every request thread
blocks on the service's future, so admission control and load
shedding live in exactly one place (:class:`AdmissionPolicy`).
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from ..errors import ReproError
from .server import ReliabilityService
from .wire import (
    BadRequest,
    observe_request,
    parse_query_body,
    parse_update_body,
    result_to_json,
    retry_after_seconds,
    update_to_json,
)

__all__ = ["ServiceHTTPServer", "result_to_json"]


class _Handler(BaseHTTPRequestHandler):
    """One request; the service instance rides on the server object."""

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------
    @property
    def _service(self) -> ReliabilityService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: object) -> None:
        # Request logging is the metrics registry's job; stderr chatter
        # would swamp the CLI's own output.
        pass

    def _reply(
        self,
        status: int,
        payload: Dict[str, object],
        retry_after: Optional[float] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", f"{retry_after:g}")
        if self.headers.get("Connection", "").lower() == "close":
            # http.server closes the socket on request, but without
            # advertising it the client cannot know the connection is
            # done until the FIN races its next request.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)
        observe_request(
            self.path, status, time.perf_counter() - self._started
        )

    # -- endpoints -----------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        self._started = time.perf_counter()
        if self.path == "/healthz":
            engine = self._service.engine
            health = {
                "status": "ok",
                "nodes": engine.graph.num_nodes,
                "arcs": engine.graph.num_arcs,
                "workers": self._service.workers,
            }
            epoch = getattr(engine, "epoch", None)
            if epoch is not None:
                health["epoch"] = epoch
            shards = getattr(engine, "num_shards", None)
            if shards is not None:
                health["shards"] = shards
                shard_states = getattr(engine, "shard_states", None)
                if shard_states is not None:
                    health["shard_states"] = {
                        str(shard_id): state
                        for shard_id, state in shard_states().items()
                    }
            self._reply(200, health)
        elif self.path == "/metrics":
            self._reply(200, self._service.metrics_snapshot())
        else:
            self._reply(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        self._started = time.perf_counter()
        # ALWAYS drain the request body first, whatever the path: with
        # keep-alive, an unread body would be parsed as the next
        # request line, desynchronizing every later exchange on the
        # connection.
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = 0
        raw = self.rfile.read(length) if length > 0 else b""
        if self.path == "/update":
            self._handle_update(raw)
            return
        if self.path != "/query":
            self._reply(404, {"error": f"unknown path {self.path!r}"})
            return
        try:
            sources, eta, kwargs, budget = parse_query_body(raw)
        except BadRequest as error:
            self._reply(400, {"error": str(error)})
            return
        try:
            result = self._service.query(sources, eta, budget=budget, **kwargs)
        except (ReproError, TypeError, ValueError) as error:
            self._reply(400, {"error": f"{type(error).__name__}: {error}"})
            return
        except Exception as error:  # noqa: BLE001 - a 500 beats a
            # torn connection: without this the handler thread dies
            # mid-exchange and the client sees a protocol error.
            self._reply(
                500, {"error": f"internal error: {type(error).__name__}"}
            )
            return
        shed = result.degraded and (result.degraded_reason or "").startswith(
            "shed:"
        )
        self._finish_query(result, shed)

    def _handle_update(self, raw: bytes) -> None:
        try:
            ops = parse_update_body(raw)
            outcome = self._service.apply_updates(ops)
        except (BadRequest, ReproError, TypeError, ValueError) as error:
            self._reply(400, {"error": f"{error}"})
            return
        except Exception as error:  # noqa: BLE001 - see do_POST
            self._reply(
                500, {"error": f"internal error: {type(error).__name__}"}
            )
            return
        self._reply(200, update_to_json(outcome))

    def _finish_query(self, result, shed: bool) -> None:
        self._reply(
            200, result_to_json(result),
            # Jittered and pressure-scaled: constant hints would march
            # every shed client back through the door in one burst.
            retry_after=(
                retry_after_seconds(self._service.shed_pressure())
                if shed else None
            ),
        )


class ServiceHTTPServer:
    """A :class:`ReliabilityService` behind ``http.server``.

    Owns both the service lifecycle and the listener: :meth:`start`
    starts the worker pool and the accept loop (in a daemon thread),
    :meth:`stop` shuts down both.  ``port=0`` binds an ephemeral port;
    read the bound one from :attr:`address`.
    """

    def __init__(
        self,
        service: ReliabilityService,
        host: str = "127.0.0.1",
        port: int = 8787,
    ) -> None:
        self._service = service
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.service = service  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def service(self) -> ReliabilityService:
        return self._service

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (resolved even for ``port=0``)."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ServiceHTTPServer":
        self._service.start()
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-serve-accept",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Run the accept loop on the calling thread (the CLI path)."""
        self._service.start()
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._service.stop()

    def __enter__(self) -> "ServiceHTTPServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
