"""The HTTP spec, held against the asyncio gateway.

Every protocol behaviour is asserted over real sockets: status codes on
every error path (malformed ``Content-Length`` included), keep-alive
correctness (including the historical unread-body desync after a 404),
shed semantics, answers equal to a direct engine query, the connection
cap and ``/batch`` streaming.
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import logging
import socket
import threading
import time

import pytest

from repro.core.engine import RQTreeEngine
from repro.graph.generators import nethept_like
from repro.service import aio_gateway
from repro.service.aio_gateway import AioGateway
from repro.service.server import ReliabilityService


def _gateway(service, **kwargs):
    return AioGateway(service, host="127.0.0.1", port=0, **kwargs)


# The one parameter keeps the test ids naming the frontend, as
# ``/healthz``'s ``"frontend": "aio"`` does.
@pytest.fixture(params=["aio"])
def server(medium_engine):
    service = ReliabilityService(medium_engine, workers=2)
    with _gateway(service) as srv:
        yield srv


def _connect(server) -> http.client.HTTPConnection:
    host, port = server.address
    return http.client.HTTPConnection(host, port, timeout=60)


def _raw_exchange(server, request: bytes) -> bytes:
    """Send *request* on a fresh socket, half-close it, and return every
    byte the server writes before it closes the connection."""
    chunks = []
    with socket.create_connection(server.address, timeout=30) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _split_response(data: bytes):
    """``(status, headers, body, rest)`` of the first response in
    *data*; *rest* is whatever the server wrote after it."""
    head, _, rest = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers["content-length"])
    return int(lines[0].split()[1]), headers, rest[:length], rest[length:]


def _post(conn, path, body_obj=None, raw=None):
    body = raw if raw is not None else json.dumps(body_obj).encode()
    conn.request(
        "POST", path, body=body,
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    return response, response.read()


# ----------------------------------------------------------------------
# Happy path + parity
# ----------------------------------------------------------------------
def test_query_matches_direct_engine(server, medium_engine):
    conn = _connect(server)
    try:
        response, payload = _post(conn, "/query", {
            "sources": [3], "eta": 0.5, "method": "mc",
            "num_samples": 200, "seed": 4,
        })
        assert response.status == 200
        reply = json.loads(payload)
        expected = medium_engine.query(
            [3], 0.5, method="mc", num_samples=200, seed=4
        )
        assert reply["nodes"] == sorted(expected.nodes)
        assert reply["degraded"] is False
        assert set(reply["statuses"]) == {
            str(n) for n in expected.statuses
        }
    finally:
        conn.close()


def test_deadline_body_answers_degraded_200(server):
    # A budget over the wire: the deadline expires, and the answer is a
    # well-formed partial one, not an error.
    conn = _connect(server)
    try:
        response, payload = _post(conn, "/query", {
            "sources": [3], "eta": 0.5, "method": "mc",
            "num_samples": 200, "seed": 4, "deadline_ms": 1e-6,
        })
        assert response.status == 200
        assert json.loads(payload)["degraded"] is True
    finally:
        conn.close()


def test_legacy_backend_field_is_ignored(server, medium_engine):
    # Bodies written for the removed sampler switch still work: the
    # field is ignored like any unknown one, and the top-level
    # backend_fallbacks reply field is gone.
    conn = _connect(server)
    try:
        response, payload = _post(conn, "/query", {
            "sources": [3], "eta": 0.5, "method": "mc",
            "num_samples": 200, "seed": 4, "backend": "python",
        })
        assert response.status == 200
        reply = json.loads(payload)
        expected = medium_engine.query(
            [3], 0.5, method="mc", num_samples=200, seed=4
        )
        assert reply["nodes"] == sorted(expected.nodes)
        assert "backend_fallbacks" not in reply
    finally:
        conn.close()


def test_quality_block_schema(server):
    """Every wire response carries the stable per-query quality block.

    Monitoring pipelines alert off these eight keys, so they must be
    present with exactly these names and JSON types on every answer —
    healthy, degraded, or shed.  ``estimator`` and ``planner_reason``
    expose the portfolio decision: which estimator actually ran and
    why; ``epoch`` is the update-plane generation the answer was
    computed against (0 on a frozen engine).
    """
    expected_keys = {
        "achieved_confidence", "worlds_used", "degraded",
        "degraded_reason", "shards_recovered", "estimator",
        "planner_reason", "epoch",
    }

    def assert_schema(reply):
        quality = reply["quality"]
        assert set(quality) == expected_keys
        assert isinstance(quality["achieved_confidence"], (int, float))
        assert isinstance(quality["worlds_used"], int)
        assert isinstance(quality["degraded"], bool)
        assert quality["degraded_reason"] is None or isinstance(
            quality["degraded_reason"], str
        )
        assert isinstance(quality["shards_recovered"], int)
        assert isinstance(quality["epoch"], int)
        assert isinstance(quality["estimator"], str)
        assert quality["planner_reason"] is None or isinstance(
            quality["planner_reason"], str
        )
        # The block mirrors the legacy top-level fields exactly.
        assert quality["achieved_confidence"] == reply["achieved_confidence"]
        assert quality["worlds_used"] == reply["worlds_used"]
        assert quality["degraded"] == reply["degraded"]
        assert quality["degraded_reason"] == reply["degraded_reason"]
        assert quality["estimator"] == reply["estimator"]

    conn = _connect(server)
    try:
        _, payload = _post(conn, "/query", {
            "sources": [3], "eta": 0.5, "method": "mc",
            "num_samples": 100, "seed": 4,
        })
        healthy = json.loads(payload)
        assert_schema(healthy)
        assert healthy["quality"]["degraded"] is False
        assert healthy["quality"]["shards_recovered"] == 0

        # A shed (degraded) answer carries the same block.
        service = server.service
        with service._lock:
            service._in_flight += service.admission.max_in_flight
        try:
            _, payload = _post(conn, "/query", {"sources": [1], "eta": 0.5})
            shed = json.loads(payload)
        finally:
            with service._lock:
                service._in_flight -= service.admission.max_in_flight
        assert_schema(shed)
        assert shed["quality"]["degraded"] is True
        assert shed["quality"]["degraded_reason"].startswith("shed:")
    finally:
        conn.close()


def test_healthz_and_metrics(server, medium_engine):
    conn = _connect(server)
    try:
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        health = json.loads(response.read())
        assert response.status == 200
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert health["nodes"] == medium_engine.graph.num_nodes
        assert health["frontend"] == "aio"

        response, _ = _post(conn, "/query", {"sources": [3], "eta": 0.5})
        assert response.status == 200
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        snapshot = json.loads(response.read())
        assert response.status == 200
        assert snapshot["counters"]["service.completed"] >= 1
        assert "result_cache" in snapshot["service"]
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Error paths: every failure mode has a status code, never a torn pipe
# ----------------------------------------------------------------------
@pytest.mark.parametrize("raw", [
    b"not json",
    b'{"eta": 0.5}',                      # missing sources
    b'{"sources": [3], "eta": "high"}',   # unparsable eta
    b"[1, 2, 3]",                         # non-object body
])
def test_malformed_bodies_are_400(server, raw):
    conn = _connect(server)
    try:
        response, payload = _post(conn, "/query", raw=raw)
        assert response.status == 400
        assert "error" in json.loads(payload)
    finally:
        conn.close()


def test_invalid_parameters_are_400(server):
    conn = _connect(server)
    try:
        # Valid JSON, invalid query: eta out of range raises a
        # ReproError inside the engine, which must surface as a 400.
        response, payload = _post(conn, "/query", {
            "sources": [3], "eta": 1.5,
        })
        assert response.status == 400
        assert "error" in json.loads(payload)
    finally:
        conn.close()


#: One field of a valid mc query replaced by a value that is not an
#: integer.  Coercing any of these would answer a different query: a
#: boolean source names node 1, and a float count used to reach the
#: sampling kernel and come back as a degraded 200.
_NON_INTEGER_FIELDS = [
    pytest.param("sources", [True], id="sources-item-bool"),
    pytest.param("sources", True, id="sources-bool"),
    pytest.param("num_samples", 100.0, id="num_samples-float"),
    pytest.param("num_samples", True, id="num_samples-bool"),
    pytest.param("seed", True, id="seed-bool"),
    pytest.param("max_hops", True, id="max_hops-bool"),
    pytest.param("max_worlds", 2.5, id="max_worlds-float"),
    pytest.param("max_worlds", True, id="max_worlds-bool"),
    pytest.param("max_candidate_nodes", 2.5, id="max_candidate_nodes-float"),
    pytest.param("max_candidate_nodes", True, id="max_candidate_nodes-bool"),
]


def _query_with(field, value):
    body = {
        "sources": [3], "eta": 0.5, "method": "mc",
        "num_samples": 100, "seed": 4,
    }
    body[field] = value
    return body


@pytest.mark.parametrize("field, value", _NON_INTEGER_FIELDS)
def test_non_integer_ids_and_counts_are_400(server, field, value):
    conn = _connect(server)
    try:
        response, payload = _post(conn, "/query", _query_with(field, value))
        assert response.status == 400
        assert field in json.loads(payload)["error"]
    finally:
        conn.close()


@pytest.mark.parametrize("field, value", _NON_INTEGER_FIELDS)
def test_non_integer_ids_and_counts_are_batch_errors(server, field, value):
    conn = _connect(server)
    try:
        response, payload = _post(conn, "/batch", {"queries": [
            _query_with(field, value), {"sources": [3], "eta": 0.5},
        ]})
        assert response.status == 200
        bad, good = [json.loads(line)
                     for line in payload.decode().strip().split("\n")]
        assert field in bad["error"]
        assert "nodes" not in bad
        assert 3 in good["nodes"]
    finally:
        conn.close()


@pytest.fixture(params=["aio"])
def live_server():
    engine = RQTreeEngine.build(nethept_like(n=60, seed=3), seed=1)
    service = ReliabilityService(engine, workers=1, live=True)
    with _gateway(service) as srv:
        yield srv


@pytest.mark.parametrize("ops", [
    pytest.param([{"op": "delete", "u": 0}], id="missing-v"),
    pytest.param([{"op": "set", "v": 1, "p": 0.5}], id="missing-u"),
    pytest.param([["delete", 0]], id="short-array"),
    pytest.param([{"op": "set", "u": 0.9, "v": "1", "p": 0.25}],
                 id="float-and-string-ids"),
    pytest.param([{"op": "set", "u": True, "v": 2, "p": 0.25}],
                 id="bool-id"),
    pytest.param([{"op": "set", "u": 0, "v": 1, "p": 0.25},
                  {"op": "delete", "u": 1}], id="bad-op-after-good-one"),
    pytest.param([{"op": "set", "u": 0, "v": 1, "p": 0.25},
                  {"op": "set", "u": 0, "v": 60, "p": 0.5}],
                 id="node-out-of-range-after-good-one"),
])
def test_malformed_updates_are_400_and_apply_nothing(live_server, ops):
    graph = live_server.service._engine.graph
    arcs_before = sorted(graph.arcs())
    conn = _connect(live_server)
    try:
        response, payload = _post(conn, "/update", ops)
        assert response.status == 400
        assert json.loads(payload)["error"]
        conn.request("GET", "/healthz")
        assert json.loads(conn.getresponse().read())["epoch"] == 0
    finally:
        conn.close()
    assert sorted(graph.arcs()) == arcs_before


def test_stop_closes_idle_keep_alive_connections(medium_engine, caplog):
    """``stop()`` closes a keep-alive connection idle between requests:
    the client reads EOF, and no handler task is left pending for the
    closed loop to destroy (which asyncio would log).

    The collector is off until EOF is read: collecting a leaked handler
    would close its socket too, and hide the leak."""
    gateway = _gateway(ReliabilityService(medium_engine, workers=1))
    gateway.start()
    conn = _connect(gateway)
    gc.disable()
    try:
        conn.request("GET", "/healthz")
        assert conn.getresponse().read()
        with caplog.at_level(logging.WARNING, logger="asyncio"):
            gateway.stop()
            conn.sock.settimeout(2.0)
            assert conn.sock.recv(1) == b""
            gc.enable()
            gc.collect()
        assert [r for r in caplog.records if r.name == "asyncio"] == []
    finally:
        gc.enable()
        conn.close()


def _stop_within(gateway, seconds):
    started = time.monotonic()
    gateway.stop()
    assert time.monotonic() - started < seconds


def _read_to_eof(sock):
    """What *sock* reads until EOF, which must come within 2 s."""
    sock.settimeout(2.0)
    chunks = []
    while chunk := sock.recv(65536):
        chunks.append(chunk)
    return b"".join(chunks)


def test_stop_closes_a_connection_stalled_mid_body(
    medium_engine, monkeypatch, caplog
):
    """A client that sends a head promising a body and then stops
    sending is waiting on itself: ``stop()`` closes it at once."""
    parsed = threading.Event()
    content_length = aio_gateway._content_length

    def spy(headers):
        parsed.set()
        return content_length(headers)

    monkeypatch.setattr(aio_gateway, "_content_length", spy)
    gateway = _gateway(ReliabilityService(medium_engine, workers=1))
    gateway.start()
    with socket.create_connection(gateway.address, timeout=30) as sock:
        sock.sendall(
            b"POST /query HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 10\r\n\r\n"
        )
        # The handler reads the body right after parsing the head.
        assert parsed.wait(timeout=10.0)
        with caplog.at_level(logging.WARNING, logger="asyncio"):
            _stop_within(gateway, 2.0)
            assert _read_to_eof(sock) == b""
    assert [r for r in caplog.records if r.name == "asyncio"] == []


def test_stop_cancels_requests_still_running_after_the_grace(
    medium_engine, monkeypatch, caplog
):
    """Requests that outlive the shutdown grace, here two blocked
    writing to clients that do not read, are cancelled and their unsent
    bytes dropped, so ``stop()`` returns and each client reads EOF."""
    monkeypatch.setattr(aio_gateway, "_SHUTDOWN_GRACE_SECONDS", 0.2)
    flood = 8 << 20
    dispatched = threading.Semaphore(0)

    async def floods_the_client(self, writer, *args):
        writer.write(b"x" * flood)
        dispatched.release()
        await writer.drain()

    monkeypatch.setattr(AioGateway, "_dispatch", floods_the_client)
    gateway = _gateway(ReliabilityService(medium_engine, workers=1))
    gateway.start()
    socks = [socket.socket() for _ in range(2)]
    try:
        for sock in socks:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(30)
            sock.connect(gateway.address)
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            assert dispatched.acquire(timeout=10.0)
        with caplog.at_level(logging.WARNING, logger="asyncio"):
            _stop_within(gateway, 2.0)
            for sock in socks:
                assert len(_read_to_eof(sock)) < flood
    finally:
        for sock in socks:
            sock.close()
    assert [r for r in caplog.records if r.name == "asyncio"] == []


def test_stop_answers_or_closes_a_connection_it_races(medium_engine, caplog):
    """A connection that arrives as ``stop()`` runs gets a complete
    answer (the request's, or a 503 refusal) or none, then EOF; its
    handler is never left unstarted on the closed loop.  One still in
    the listen backlog when the socket closes is reset by the kernel.
    The race is narrow, hence the forty rounds."""
    for _ in range(40):
        gateway = _gateway(ReliabilityService(medium_engine, workers=1))
        gateway.start()
        with socket.create_connection(gateway.address, timeout=30) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            with caplog.at_level(logging.WARNING, logger="asyncio"):
                _stop_within(gateway, 2.0)
                try:
                    data = _read_to_eof(sock)
                except ConnectionResetError:
                    data = b""
        if data:
            status, _, _, rest = _split_response(data)
            assert status in (200, 503) and rest == b""
    assert [r for r in caplog.records if r.name == "asyncio"] == []


@pytest.mark.parametrize("length", ["-5", "abc"])
def test_malformed_content_length_is_400_and_closes(server, length):
    """Without a valid length the body's end is unknown, so the gateway
    answers 400 and closes: the body bytes (here a whole request) must
    never be parsed as the next request."""
    smuggled = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
    data = _raw_exchange(
        server,
        b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: "
        + length.encode() + b"\r\n\r\n" + smuggled,
    )
    assert data, "connection closed without a response"
    status, headers, body, rest = _split_response(data)
    assert status == 400
    assert "Content-Length" in json.loads(body)["error"]
    assert headers["connection"] == "close"
    assert rest == b""


def test_unknown_paths_are_404(server):
    conn = _connect(server)
    try:
        conn.request("GET", "/nope")
        response = conn.getresponse()
        assert response.status == 404
        response.read()
        response, _ = _post(conn, "/definitely/not", {"x": 1})
        assert response.status == 404
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Keep-alive: the regression suite for the unread-body desync
# ----------------------------------------------------------------------
def test_keep_alive_reuses_connection(server):
    conn = _connect(server)
    try:
        for source in (1, 2, 3):
            response, payload = _post(conn, "/query", {
                "sources": [source], "eta": 0.5,
            })
            assert response.status == 200
            assert json.loads(payload)["sources"] == [source]
    finally:
        conn.close()


def test_keep_alive_survives_404_with_body(server):
    """A POST with a body to an unknown path must drain the body.

    Historical bug: the threaded server wrote its 404 without reading
    the request body, so the next request on the same connection was
    parsed starting at the stale body bytes and every later exchange
    desynchronized.
    """
    conn = _connect(server)
    try:
        response, _ = _post(
            conn, "/nope", {"sources": [1], "eta": 0.5, "pad": "x" * 256}
        )
        assert response.status == 404
        # The connection must still speak clean HTTP:
        response, payload = _post(conn, "/query", {
            "sources": [2], "eta": 0.5,
        })
        assert response.status == 200
        assert json.loads(payload)["sources"] == [2]
    finally:
        conn.close()


def test_keep_alive_survives_400_with_body(server):
    conn = _connect(server)
    try:
        response, _ = _post(conn, "/query", raw=b'{"bad": ' + b"x" * 512)
        assert response.status == 400
        response, payload = _post(conn, "/query", {
            "sources": [0], "eta": 0.5,
        })
        assert response.status == 200
        assert json.loads(payload)["sources"] == [0]
    finally:
        conn.close()


def test_connection_close_honoured(server):
    conn = _connect(server)
    try:
        conn.request(
            "POST", "/query",
            body=json.dumps({"sources": [1], "eta": 0.5}).encode(),
            headers={
                "Content-Type": "application/json",
                "Connection": "close",
            },
        )
        response = conn.getresponse()
        assert response.status == 200
        response.read()
        assert response.will_close
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Shedding stays a well-formed 200 with an actionable header
# ----------------------------------------------------------------------
def test_shed_query_is_degraded_200_with_retry_after(server):
    service = server.service
    # Deterministically trip the in-flight limit: the counter is what
    # admission checks, and holding it full avoids a timing-dependent
    # blocker query.
    with service._lock:
        service._in_flight += service.admission.max_in_flight
    try:
        conn = _connect(server)
        try:
            response, payload = _post(conn, "/query", {
                "sources": [1], "eta": 0.5,
            })
            assert response.status == 200
            reply = json.loads(payload)
            assert reply["degraded"] is True
            assert reply["degraded_reason"].startswith("shed:")
            assert response.getheader("Retry-After") is not None
        finally:
            conn.close()
    finally:
        with service._lock:
            service._in_flight -= service.admission.max_in_flight


# ----------------------------------------------------------------------
# Connection cap and /batch streaming
# ----------------------------------------------------------------------
def test_gateway_connection_cap_503(medium_engine):
    service = ReliabilityService(medium_engine, workers=1)
    with _gateway(service, max_connections=2) as srv:
        host, port = srv.address
        held = [http.client.HTTPConnection(host, port, timeout=30)
                for _ in range(2)]
        try:
            # Make both connections real (accepted, counted, kept alive).
            for conn in held:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
            overflow = http.client.HTTPConnection(host, port, timeout=30)
            overflow.request("GET", "/healthz")
            response = overflow.getresponse()
            assert response.status == 503
            assert response.getheader("Retry-After") is not None
            overflow.close()
        finally:
            for conn in held:
                conn.close()


def test_gateway_batch_streams_in_order(medium_engine):
    service = ReliabilityService(medium_engine, workers=2)
    with _gateway(service) as srv:
        conn = _connect(srv)
        try:
            queries = [{"sources": [i], "eta": 0.5} for i in range(5)]
            queries.insert(2, {"eta": 0.5})  # malformed: missing sources
            response, payload = _post(conn, "/batch", {"queries": queries})
            assert response.status == 200
            assert response.getheader("Content-Type") == (
                "application/x-ndjson"
            )
            lines = [json.loads(line)
                     for line in payload.decode().strip().split("\n")]
            assert len(lines) == 6
            assert "error" in lines[2]
            expected = [q["sources"] for q in queries if "sources" in q]
            got = [line["sources"] for line in lines if "sources" in line]
            assert got == expected
            # The connection is still usable after a chunked response.
            response, payload = _post(conn, "/query", {
                "sources": [1], "eta": 0.5,
            })
            assert response.status == 200
        finally:
            conn.close()


def test_gateway_batch_rejects_non_array(medium_engine):
    service = ReliabilityService(medium_engine, workers=1)
    with _gateway(service) as srv:
        conn = _connect(srv)
        try:
            response, payload = _post(conn, "/batch", {"queries": "nope"})
            assert response.status == 400
        finally:
            conn.close()


def test_gateway_many_concurrent_connections(medium_engine):
    """Hundreds of sockets held open at once — far beyond what a
    thread-per-connection frontend would tolerate comfortably."""
    service = ReliabilityService(medium_engine, workers=2)
    with _gateway(service) as srv:
        host, port = srv.address
        conns = [http.client.HTTPConnection(host, port, timeout=60)
                 for _ in range(200)]
        try:
            for conn in conns:
                conn.request("GET", "/healthz")
            statuses = {conn.getresponse().status for conn in conns}
            assert statuses == {200}
        finally:
            for conn in conns:
                conn.close()
