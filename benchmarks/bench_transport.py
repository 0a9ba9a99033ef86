"""Data-plane cost: shard transport overhead and gateway fan-in.

Two measurements of the zero-copy data plane:

**Scatter-gather overhead.**  For each ``shard.transport`` the same
fixed single-source sub-queries (``{"sources": [s], "eta": eta}``,
what a scatter sends one owning shard) are submitted straight to the
workers of a 2-shard process-mode engine and waited for one at a time,
so no gateway method and no refinement runs between them.  Per-query
transport overhead is the round-trip wall time *minus* the compute
time the worker itself reports (``response["seconds"]``) — i.e. pure
IPC + serialization + scheduling.  With the shm transport per-query
messages are node ids and budget scalars, so the overhead must stay
under a millisecond even at n=5000 (asserted in full mode).
Spawn-time cost is recorded too: pickle ships the whole subgraph
through the pipe, shm ships a segment name.

**Gateway connection sweep.**  The asyncio gateway holds every
connection of an N-way fan-in and answers all of them; the sweep
records connections/second as N grows past what a thread-per-connection
frontend would tolerate.

Results go to ``BENCH_transport.json`` at the repo root (and
``benchmarks/results/transport.txt``).  ``BENCH_QUICK=1`` shrinks the
graph and the sweep; the <1 ms assertion only runs at full size.
"""

from __future__ import annotations

import http.client
import json
import os
import pickle
import time
from pathlib import Path

from repro.eval.reporting import format_table
from repro.graph.generators import uncertain_gnp
from repro.shard import ShardedRQTreeEngine, build_shard_plan
from repro.shard.runtime import build_shard_payload

from conftest import host_info, write_result

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

NUM_NODES = 5000 if not QUICK else 400
MEAN_OUT_DEGREE = 4.0
EXISTENCE_RANGE = (0.1, 0.6)
ETA = 0.3
NUM_QUERIES = 24 if not QUICK else 8
SHARDS = 2
TRANSPORTS = ("pickle", "shm")
SEED = 7
CONNECTION_SWEEP = (8, 64, 256) if not QUICK else (4, 16)

JSON_PATH = Path(__file__).parent.parent / "BENCH_transport.json"


def _payload_bytes(graph, plan, transport):
    """Total pickled payload size across shards — what spawn ships."""
    return sum(
        len(pickle.dumps(
            build_shard_payload(graph, plan, shard_id, seed=SEED,
                                transport=transport)
        ))
        for shard_id in range(plan.num_shards)
    )


def _release_payload_segments(plan):
    # _payload_bytes published segments it never spawned workers for.
    from repro.shard import shm

    for name in list(shm.registry.active()):
        shm.registry.release(name)


def test_transport_overhead_and_gateway_sweep():
    graph = uncertain_gnp(
        NUM_NODES, MEAN_OUT_DEGREE / NUM_NODES,
        existence_range=EXISTENCE_RANGE, seed=42,
    )
    plan = build_shard_plan(graph, SHARDS, seed=SEED)
    sources = [part[0] for part in plan.shard_nodes] * NUM_QUERIES
    sources = sources[:NUM_QUERIES]
    requests = [{"sources": [source], "eta": ETA} for source in sources]

    records = []
    rows = []
    answers = {}
    for transport in TRANSPORTS:
        payload_bytes = _payload_bytes(graph, plan, transport)
        _release_payload_segments(plan)

        build_start = time.perf_counter()
        engine = ShardedRQTreeEngine.build(
            graph, shards=SHARDS, seed=SEED, mode="process",
            transport=transport,
        )
        build_seconds = time.perf_counter() - build_start
        try:
            assert engine.transport == transport
            clients = [engine._client(s) for s in range(SHARDS)]
            for client, request in zip(clients, requests):  # warm
                client.wait(client.submit(request))
            wall = compute = 0.0
            responses = []
            for request in requests:
                client = clients[plan.owner(request["sources"][0])]
                start = time.perf_counter()
                response = client.wait(client.submit(request))
                wall += time.perf_counter() - start
                compute += response["seconds"]
                responses.append(response)
        finally:
            engine.close()

        assert not any(r["degraded"] for r in responses)
        answers[transport] = [
            (sorted(r["kept"]), sorted(r["candidates"])) for r in responses
        ]

        # The gap between the round trip and the worker's own compute
        # is the transport: queue pickling, wakeup, and response
        # transfer.
        round_trip_ms = wall / len(requests) * 1000
        overhead_ms = (wall - compute) / len(requests) * 1000
        records.append(
            {
                "transport": transport,
                "payload_bytes": payload_bytes,
                "build_seconds": round(build_seconds, 4),
                "round_trip_ms_mean": round(round_trip_ms, 4),
                "overhead_ms_mean": round(overhead_ms, 4),
            }
        )
        rows.append(
            [
                transport,
                f"{payload_bytes / 1024:.0f}",
                f"{build_seconds:.2f}",
                f"{round_trip_ms:.2f}",
                f"{overhead_ms:.3f}",
            ]
        )

    # The transport must never change an answer.
    assert answers["pickle"] == answers["shm"]

    by_transport = {record["transport"]: record for record in records}

    # ------------------------------------------------------------------
    # Gateway fan-in sweep
    # ------------------------------------------------------------------
    from repro import RQTreeEngine
    from repro.service import AioGateway, ReliabilityService

    service = ReliabilityService(RQTreeEngine.build(graph, seed=0),
                                 workers=2)
    sweep = []
    sweep_rows = []
    with AioGateway(service, port=0, max_connections=None) as gateway:
        host, port = gateway.address
        for count in CONNECTION_SWEEP:
            conns = [
                http.client.HTTPConnection(host, port, timeout=120)
                for _ in range(count)
            ]
            try:
                start = time.perf_counter()
                for conn in conns:
                    conn.request("GET", "/healthz")
                statuses = set()
                for conn in conns:
                    response = conn.getresponse()
                    statuses.add(response.status)
                    response.read()
                wall = time.perf_counter() - start
            finally:
                for conn in conns:
                    conn.close()
            assert statuses == {200}
            sweep.append(
                {
                    "connections": count,
                    "wall_seconds": round(wall, 4),
                    "conns_per_second": round(count / wall, 1),
                }
            )
            sweep_rows.append(
                [count, f"{wall:.3f}", f"{count / wall:.0f}"]
            )

    table = format_table(
        ["transport", "payload (KiB)", "build (s)", "round trip (ms)",
         "overhead (ms)"],
        rows,
    )
    sweep_table = format_table(
        ["connections", "wall (s)", "conns/s"], sweep_rows
    )
    write_result("transport", table + "\n" + sweep_table)
    JSON_PATH.write_text(
        json.dumps(
            {
                "experiment": "transport_overhead",
                "quick_mode": QUICK,
                "num_nodes": NUM_NODES,
                "num_arcs": graph.num_arcs,
                "existence_range": list(EXISTENCE_RANGE),
                "eta": ETA,
                "num_queries": NUM_QUERIES,
                "shards": SHARDS,
                "mode": "process",
                "seed": SEED,
                "transports": records,
                "gateway_sweep": sweep,
                "host": host_info(),
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    if not QUICK:
        shm_overhead = by_transport["shm"]["overhead_ms_mean"]
        assert shm_overhead < 1.0, (
            f"shm scatter-gather overhead {shm_overhead:.3f} ms/query "
            "at n=5000; the zero-copy transport is not zero-copy"
        )
