"""Asyncio HTTP gateway: thousands of connections, one worker pool.

:class:`AioGateway` is the service's HTTP frontend.  It serves the JSON
protocol of :mod:`repro.service.wire` from a single event loop instead
of a thread per connection: connections are coroutines, queries bridge
to the :class:`~repro.service.server.ReliabilityService` worker pool
through ``asyncio.wrap_future`` (the pool's
``concurrent.futures.Future`` resolves on a worker thread and wakes the
loop), and the loop thread itself never blocks on query work.

Endpoints
---------
* ``POST /query`` — body is a JSON object with the fields of
  :meth:`ReliabilityService.submit` (``sources``, ``eta``, optional
  ``method`` / ``num_samples`` / ``seed`` / ``multi_source_mode`` /
  ``max_hops``; other fields are ignored) plus optional budget fields
  (``deadline_ms`` / ``max_worlds`` / ``max_candidate_nodes``).
  Replies 200 with the serialized :class:`QueryResult` (degraded
  answers included — shedding is not an HTTP error), or 400 with
  ``{"error": ...}`` for malformed requests.
* ``POST /update`` — body is a JSON array of arc-update ops (or
  ``{"updates": [...]}``); replies 200 with ``{"accepted": true,
  "epoch": E, "ops": N}`` when the service is live, 400 otherwise and
  for rejected batches (rejection is atomic: a 400 applied nothing).
  The apply runs on the default executor so a long update stream
  (per-shard slice streaming, snapshot publication) never stalls the
  event loop's queries.
* ``POST /batch`` — body ``{"queries": [<query body>, ...]}``; every
  query is submitted up front (so they share admission and dedup like
  any concurrent burst) and results **stream** back in request order
  as chunked newline-delimited JSON, each line the
  same wire object a ``/query`` reply carries (or
  ``{"error": ...}`` for an individually malformed entry).  A client
  can consume the first answers while later ones still compute.
* ``GET /metrics`` — the service's merged metrics snapshot;
  ``GET /healthz`` — liveness plus graph shape (and the serving epoch
  and shard states when the engine has them).

Backpressure
------------
Two explicit layers, nothing implicit:

* **Connection cap** — at most ``max_connections`` sockets are served;
  beyond that the gateway answers ``503`` with a ``Retry-After``
  header and closes.  The default cap is derived from the service's
  :class:`~repro.service.pool.AdmissionPolicy` (``8 x max_in_flight``):
  past that point queued queries would only be shed anyway, so holding
  the socket open would convert overload into latency instead of an
  actionable signal.
* **Admission shedding** — queries beyond ``max_in_flight`` still get
  a well-formed 200 with ``degraded: true`` and a ``Retry-After``
  header: the request was valid, the service chose not to spend
  compute on it.

Keep-alive: HTTP/1.1 persistent connections, honouring
``Connection: close``.  Bodies are read by ``Content-Length`` and
always fully drained — even on 404 — so a desynchronized exchange is
impossible by construction; a ``Content-Length`` that is not a
non-negative decimal integer is a 400 that closes the connection,
since the body's end is then unknown.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Dict, List, Optional, Set, Tuple

from ..errors import ReproError
from .server import ReliabilityService
from .wire import (
    BadRequest,
    _decode_object,
    observe_request,
    parse_query_body,
    parse_query_object,
    parse_update_body,
    result_to_json,
    retry_after_seconds,
    update_to_json,
)

__all__ = ["AioGateway"]

#: Hard ceiling on accepted header bytes; a request line + headers
#: larger than this is a 431 and the connection closes.
_MAX_HEADER_BYTES = 32 * 1024

#: Hard ceiling on a request body (16 MiB covers any sane batch).
_MAX_BODY_BYTES = 16 * 1024 * 1024

#: How long shutdown lets a busy connection finish its request before
#: cancelling it (kept under ``stop()``'s 10 s wait for the loop).
_SHUTDOWN_GRACE_SECONDS = 5.0


class _HTTPError(Exception):
    """An error that maps to a complete HTTP error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class AioGateway:
    """A :class:`ReliabilityService` behind an asyncio HTTP server.

    The event loop runs on a dedicated daemon thread; ``start`` returns
    once the socket is bound, ``serve_forever`` blocks until
    interrupted, and ``stop`` closes the socket and the service.

    Parameters
    ----------
    service:
        The service to expose.  The gateway starts and stops it.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port.
    max_connections:
        Concurrent-connection cap; ``None`` derives
        ``8 * service.admission.max_in_flight``.
    """

    def __init__(
        self,
        service: ReliabilityService,
        host: str = "127.0.0.1",
        port: int = 8787,
        max_connections: Optional[int] = None,
    ) -> None:
        if max_connections is not None and max_connections < 1:
            raise ValueError(
                f"max_connections must be >= 1, got {max_connections}"
            )
        self._service = service
        self._host = host
        self._port = port
        self.max_connections = (
            max_connections
            if max_connections is not None
            else 8 * service.admission.max_in_flight
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown_event: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._address: Optional[Tuple[str, int]] = None
        self._connections = 0
        self._stopping = False
        #: Connection handlers waiting on a read from their client,
        #: which shutdown cancels at once.
        self._reading: Set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def service(self) -> ReliabilityService:
        return self._service

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (resolved even for ``port=0``)."""
        if self._address is None:
            raise RuntimeError("gateway is not started")
        return self._address

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "AioGateway":
        """Bind the socket and serve from a background daemon thread."""
        if self._thread is not None:
            return self
        self._service.start()
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-aio-gateway", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30.0)
        if self._address is None:
            raise RuntimeError("asyncio gateway failed to bind")
        return self

    def serve_forever(self) -> None:
        """Run until interrupted (the CLI path)."""
        self.start()
        try:
            self._thread.join()
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        """Stop accepting, close open connections, stop the service.

        A connection waiting on its client (for a request, or for the
        rest of a body) is closed at once; one running a request gets
        ``_SHUTDOWN_GRACE_SECONDS`` to finish it and is then closed.  A
        connection that arrives meanwhile is refused with a 503.
        """
        loop = self._loop
        if loop is not None and not loop.is_closed():
            self._stopping = True
            try:
                loop.call_soon_threadsafe(self._shutdown_event.set)
            except RuntimeError:  # pragma: no cover - loop just closed
                pass
            if self._thread is not None:
                self._thread.join(timeout=10.0)
        self._thread = None
        self._loop = None
        self._service.stop()

    def __enter__(self) -> "AioGateway":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self._shutdown_event = asyncio.Event()
        try:
            loop.run_until_complete(self._serve())
        finally:
            try:
                loop.run_until_complete(loop.shutdown_asyncgens())
            finally:
                asyncio.set_event_loop(None)
                loop.close()

    async def _serve(self) -> None:
        server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        self._server = server
        sockname = server.sockets[0].getsockname()
        self._address = (sockname[0], sockname[1])
        self._started.set()
        try:
            await self._shutdown_event.wait()
        finally:
            await self._close_connections(server)
            await server.wait_closed()

    async def _close_connections(self, server: asyncio.AbstractServer) -> None:
        """End every connection, then stop listening, while the loop can
        still close their sockets.

        A handler reading from its client may wait forever, so it is
        cancelled at once; a busy one finishes its request and sees
        ``_stopping``.  Until no other task is left on the loop, new
        connections are still accepted, and refused with a 503.  The
        listener closes only then, so no connection is caught between
        its accept and the start of its handler: asyncio (3.11) cannot
        set up a connection accepted before the close but set up after
        it, and leaks its socket.  When the grace runs out first, the
        listener closes and every task left is cancelled, once.
        """
        def others():
            return asyncio.all_tasks() - {asyncio.current_task()}

        loop = asyncio.get_running_loop()
        deadline = loop.time() + _SHUTDOWN_GRACE_SECONDS
        while running := others():
            for task in list(self._reading):
                task.cancel()
            left = deadline - loop.time()
            if left <= 0:
                break
            await asyncio.wait(
                running, timeout=left, return_when=asyncio.FIRST_COMPLETED
            )
        server.close()
        for task in others():
            task.cancel()
        while running := others():
            await asyncio.wait(running)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            if self._connections >= self.max_connections or self._stopping:
                # Over the cap: refuse with an actionable signal instead
                # of queueing the socket into invisible latency.
                await self._write_response(
                    writer, 503,
                    {"error": "connection limit reached"},
                    keep_alive=False,
                    # A tripped connection cap is full pressure by
                    # definition; the jitter spreads the reconnect wave.
                    retry_after=retry_after_seconds(1.0),
                )
                return
            self._connections += 1
            try:
                await self._connection_loop(reader, writer)
            finally:
                self._connections -= 1
        except (
            ConnectionError, asyncio.IncompleteReadError, TimeoutError
        ):
            pass  # client went away mid-exchange; nothing to salvage
        except asyncio.CancelledError:
            # Shutdown cancels connections it cannot wait for; end those
            # normally, as the stream protocol before Python 3.13 logs a
            # cancelled handler (its done callback reads the exception),
            # and drop any unsent bytes, which a client that stopped
            # reading would hold in the transport for ever.
            if not self._stopping:
                raise
            writer.transport.abort()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _connection_loop(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        while not self._stopping:
            try:
                head = await self._from_client(
                    reader.readuntil(b"\r\n\r\n")
                )
            except asyncio.IncompleteReadError:
                return  # clean close between requests
            except asyncio.LimitOverrunError:
                await self._write_response(
                    writer, 431, {"error": "headers too large"},
                    keep_alive=False,
                )
                return
            if len(head) > _MAX_HEADER_BYTES:
                await self._write_response(
                    writer, 431, {"error": "headers too large"},
                    keep_alive=False,
                )
                return
            try:
                method, path, headers = _parse_head(head)
                length = _content_length(headers)
            except _HTTPError as error:
                await self._write_response(
                    writer, error.status, {"error": str(error)},
                    keep_alive=False,
                )
                return
            if length > _MAX_BODY_BYTES:
                await self._write_response(
                    writer, 413, {"error": "request body too large"},
                    keep_alive=False,
                )
                return
            # Drain the body unconditionally (even for a 404) so the
            # next request on this connection starts at a clean byte.
            body = (
                await self._from_client(reader.readexactly(length))
                if length else b""
            )
            keep_alive = (
                headers.get("connection", "keep-alive").lower() != "close"
            )
            started = time.perf_counter()
            done, status = await self._dispatch(
                writer, method, path, body, keep_alive
            )
            observe_request(path, status, time.perf_counter() - started)
            if not keep_alive or done:
                return

    async def _from_client(self, read):
        """Await *read*, a read from the client, as one shutdown may
        cancel at once: only the client can end it."""
        task = asyncio.current_task()
        self._reading.add(task)
        try:
            return await read
        finally:
            self._reading.discard(task)

    async def _dispatch(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        body: bytes,
        keep_alive: bool,
    ) -> Tuple[bool, int]:
        """Route one request; returns ``(must_close, status)``."""
        if method == "GET" and path == "/healthz":
            engine = self._service.engine
            health = {
                "status": "ok",
                "nodes": engine.graph.num_nodes,
                "arcs": engine.graph.num_arcs,
                "workers": self._service.workers,
                "frontend": "aio",
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
            await self._write_response(
                writer, 200, health, keep_alive=keep_alive
            )
            return False, 200
        if method == "GET" and path == "/metrics":
            await self._write_response(
                writer, 200, self._service.metrics_snapshot(),
                keep_alive=keep_alive,
            )
            return False, 200
        if method == "POST" and path == "/query":
            status, payload, retry_after = await self._run_query(body)
            await self._write_response(
                writer, status, payload,
                keep_alive=keep_alive, retry_after=retry_after,
            )
            return False, status
        if method == "POST" and path == "/update":
            status, payload = await self._run_update(body)
            await self._write_response(
                writer, status, payload, keep_alive=keep_alive
            )
            return False, status
        if method == "POST" and path == "/batch":
            return await self._run_batch(writer, body, keep_alive)
        await self._write_response(
            writer, 404, {"error": f"unknown path {path!r}"},
            keep_alive=keep_alive,
        )
        return False, 404

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    async def _run_query(
        self, body: bytes
    ) -> Tuple[int, Dict[str, object], Optional[float]]:
        try:
            sources, eta, kwargs, budget = parse_query_body(body)
        except BadRequest as error:
            return 400, {"error": str(error)}, None
        try:
            future = self._service.submit(
                sources, eta, budget=budget, **kwargs
            )
        except (ReproError, TypeError, ValueError) as error:
            return 400, {"error": f"{type(error).__name__}: {error}"}, None
        try:
            result = await asyncio.wrap_future(future)
        except (ReproError, TypeError, ValueError) as error:
            return 400, {"error": f"{type(error).__name__}: {error}"}, None
        except Exception as error:  # noqa: BLE001 - 500 beats a torn pipe
            return (
                500,
                {"error": f"internal error: {type(error).__name__}"},
                None,
            )
        shed = result.degraded and (
            result.degraded_reason or ""
        ).startswith("shed:")
        return (
            200,
            result_to_json(result),
            retry_after_seconds(self._service.shed_pressure())
            if shed else None,
        )

    async def _run_update(
        self, body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        try:
            ops = parse_update_body(body)
        except BadRequest as error:
            return 400, {"error": str(error)}
        loop = asyncio.get_running_loop()
        try:
            outcome = await loop.run_in_executor(
                None, self._service.apply_updates, ops
            )
        except (ReproError, TypeError, ValueError) as error:
            return 400, {"error": f"{error}"}
        except Exception as error:  # noqa: BLE001 - 500 beats a torn pipe
            return 500, {"error": f"internal error: {type(error).__name__}"}
        return 200, update_to_json(outcome)

    async def _run_batch(
        self,
        writer: asyncio.StreamWriter,
        body: bytes,
        keep_alive: bool,
    ) -> Tuple[bool, int]:
        """``POST /batch``: submit all queries, stream results in order.

        Submitting everything before awaiting anything is what lets the
        service's cross-query machinery (dedup, admission) see the
        whole burst at once — exactly as if the client had opened N
        connections, minus the N sockets.
        """
        try:
            envelope = _decode_object(body)
            queries = envelope.get("queries")
            if not isinstance(queries, list):
                raise BadRequest(
                    "bad request: 'queries' must be a JSON array"
                )
        except BadRequest as error:
            await self._write_response(
                writer, 400, {"error": str(error)}, keep_alive=keep_alive
            )
            return False, 400
        futures: List[object] = []
        for query in queries:
            try:
                sources, eta, kwargs, budget = parse_query_object(query)
                futures.append(
                    self._service.submit(sources, eta, budget=budget, **kwargs)
                )
            except (BadRequest, ReproError, TypeError, ValueError) as error:
                futures.append(error)

        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            + (b"" if keep_alive else b"Connection: close\r\n")
            + b"\r\n"
        )
        for item in futures:
            if isinstance(item, Exception):
                line = {"error": f"{type(item).__name__}: {item}"}
            else:
                try:
                    result = await asyncio.wrap_future(item)
                    line = result_to_json(result)
                except Exception as error:  # noqa: BLE001 - per-line error
                    line = {"error": f"{type(error).__name__}: {error}"}
            chunk = json.dumps(line).encode("utf-8") + b"\n"
            writer.write(
                f"{len(chunk):x}\r\n".encode("ascii") + chunk + b"\r\n"
            )
            await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()
        return False, 200

    # ------------------------------------------------------------------
    # Response writing
    # ------------------------------------------------------------------
    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, object],
        keep_alive: bool = True,
        retry_after: Optional[float] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        reason = _REASONS.get(status, "OK")
        head = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]
        if retry_after is not None:
            head.append(f"Retry-After: {retry_after:g}")
        if not keep_alive:
            head.append("Connection: close")
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body
        )
        await writer.drain()


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _parse_head(
    head: bytes,
) -> Tuple[str, str, Dict[str, str]]:
    """Split request line + headers; raises :class:`_HTTPError` on junk."""
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError as error:  # pragma: no cover - latin-1 total
        raise _HTTPError(400, f"undecodable request head: {error}")
    lines = text.split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _HTTPError(400, f"malformed request line {lines[0]!r}")
    method, path, _version = parts
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise _HTTPError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return method, path, headers


def _content_length(headers: Dict[str, str]) -> int:
    """The declared body length (0 when absent); raises
    :class:`_HTTPError` 400 unless it is a non-negative decimal
    integer, since the body's end is then unknown."""
    raw = headers.get("content-length", "0")
    if not (raw.isascii() and raw.isdigit()):
        raise _HTTPError(400, f"malformed Content-Length {raw!r}")
    return int(raw)
