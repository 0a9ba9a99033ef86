"""Serving-layer throughput: worker scaling via cross-query batching.

The serving layer's performance claim is *not* parallel speed-up (the
query pipeline is pure-Python + numpy and GIL-bound on a small box) —
it is that concurrent queries with the same sampling signature share
one Monte-Carlo coin draw, so a loaded service does strictly less
total work than the same queries run back-to-back.  This benchmark
pushes one fixed batch of seeded MC queries (distinct sources, same
seed and world count — the monitoring-dashboard shape) through
services with 1, 4, and 8 workers and reports throughput and latency
per configuration.  With 1 worker, queries run alone and every query
draws its own coins; with 8, up to 8 in-flight queries share a block.

Results go to ``BENCH_service.json`` at the repo root (and
``benchmarks/results/service.txt``).  ``BENCH_QUICK=1`` shrinks the
graph and workload to a CI smoke test; the scaling assertion only runs
at full size, where the coin draw actually dominates.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro import RQTreeEngine
from repro.eval.reporting import format_table
from repro.graph.generators import uncertain_gnp
from repro.service import MetricsRegistry, ReliabilityService
from repro.service.pool import AdmissionPolicy

from conftest import host_info, write_result

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

NUM_NODES = 2000 if not QUICK else 300
MEAN_OUT_DEGREE = 8.0
#: Low-probability regime: candidate filtering is loose here (the
#: filter admits most of the graph), so MC verification — and with it
#: the shareable coin draw — dominates each query.
EXISTENCE_RANGE = (0.02, 0.15)
ETA = 0.1
NUM_SAMPLES = 20000 if not QUICK else 2000
NUM_QUERIES = 32 if not QUICK else 8
WORKER_COUNTS = (1, 4, 8)
SEED = 1  # shared by every query: the shareable-signature workload

JSON_PATH = Path(__file__).parent.parent / "BENCH_service.json"


def _fingerprint(result):
    return (
        tuple(sorted(result.nodes)),
        tuple(sorted(result.statuses.items())),
        result.worlds_used,
    )


def test_service_worker_scaling():
    graph = uncertain_gnp(
        NUM_NODES, MEAN_OUT_DEGREE / NUM_NODES,
        existence_range=EXISTENCE_RANGE, seed=42,
    )
    engine = RQTreeEngine.build(graph, seed=0)

    specs = [
        dict(
            sources=[(i * 31) % NUM_NODES], eta=ETA, method="mc",
            num_samples=NUM_SAMPLES, seed=SEED,
        )
        for i in range(NUM_QUERIES)
    ]

    # Warm the CSR snapshot and cluster-bounds caches so the first
    # timed configuration isn't charged for one-off setup.
    engine.query(**specs[0])

    records = []
    rows = []
    fingerprints = {}
    for workers in WORKER_COUNTS:
        registry = MetricsRegistry()
        service = ReliabilityService(
            engine,
            workers=workers,
            admission=AdmissionPolicy(max_in_flight=NUM_QUERIES + 1),
            registry=registry,
        )
        start = time.perf_counter()
        with service:
            futures = [service.submit(**spec) for spec in specs]
            results = [future.result(timeout=600) for future in futures]
        wall = time.perf_counter() - start

        fingerprints[workers] = [_fingerprint(r) for r in results]
        assert not any(r.degraded for r in results)

        latency = registry.histogram("service.latency_seconds")
        drawn = registry.counter("service.batcher.chunks_drawn").value
        reused = registry.counter("service.batcher.chunks_reused").value
        qps = NUM_QUERIES / wall
        records.append(
            {
                "workers": workers,
                "wall_seconds": round(wall, 4),
                "qps": round(qps, 3),
                "p50_ms": round(latency.quantile(0.5) * 1000, 2),
                "p95_ms": round(latency.quantile(0.95) * 1000, 2),
                "coin_chunks_drawn": drawn,
                "coin_chunks_reused": reused,
            }
        )
        rows.append(
            [
                workers,
                f"{wall:.2f}",
                f"{qps:.2f}",
                f"{latency.quantile(0.5) * 1000:.0f}",
                f"{latency.quantile(0.95) * 1000:.0f}",
                drawn,
                reused,
            ]
        )

    # The answers must not depend on the worker count.
    for workers in WORKER_COUNTS[1:]:
        assert fingerprints[workers] == fingerprints[WORKER_COUNTS[0]]

    by_workers = {record["workers"]: record for record in records}
    speedup = by_workers[8]["qps"] / by_workers[1]["qps"]
    speedup_8v4 = by_workers[8]["qps"] / by_workers[4]["qps"]

    table = format_table(
        ["workers", "wall (s)", "qps", "p50 (ms)", "p95 (ms)",
         "chunks drawn", "chunks reused"],
        rows,
    )
    write_result(
        "service",
        table + f"\nspeedup 8v1: {speedup:.2f}x  "
        f"8v4: {speedup_8v4:.2f}x\n",
    )
    JSON_PATH.write_text(
        json.dumps(
            {
                "experiment": "service_worker_scaling",
                "quick_mode": QUICK,
                "num_nodes": NUM_NODES,
                "num_arcs": graph.num_arcs,
                "existence_range": list(EXISTENCE_RANGE),
                "eta": ETA,
                "num_samples": NUM_SAMPLES,
                "num_queries": NUM_QUERIES,
                "seed": SEED,
                "sweep": records,
                "speedup_8v1": round(speedup, 3),
                "speedup_8v4": round(speedup_8v4, 3),
                "host": host_info(),
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    # With one worker every query pays its own coin draw; with eight,
    # concurrent queries share blocks, so most chunks are reuses.
    assert by_workers[1]["coin_chunks_reused"] == 0
    assert by_workers[8]["coin_chunks_reused"] > 0
    if not QUICK:
        assert speedup >= 2.5, (
            f"8-worker throughput only {speedup:.2f}x the 1-worker "
            "baseline; cross-query batching is not paying for itself"
        )
        # More in-flight queries means more coin-draw sharing, so
        # throughput must keep improving from 4 to 8 workers even on a
        # single core.
        assert by_workers[8]["qps"] > by_workers[4]["qps"], (
            f"qps at 8 workers ({by_workers[8]['qps']}) did not exceed "
            f"4 workers ({by_workers[4]['qps']})"
        )
