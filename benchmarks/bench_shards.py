"""Sharded-serving throughput: qps and tail latency vs shard count.

The sharding tier's performance claim is process-level parallelism for
the expensive per-query phase: candidate generation (max-flow calls on
boundary subgraphs) and local lb verification run inside the shard
worker that owns the query's sources, so a single-source workload whose
sources are spread across shards keeps K workers busy at once — and
each sub-query runs on a ~n/K-node subgraph instead of the whole
graph.  The gateway's own work per query is one truncated multi-source
Dijkstra plus the edge-packing verifier over the merged pool.

The queries use ``lb+``: it is the deterministic method that scatters.
``lb`` is answered by the gateway's whole-graph pass alone and reaches
no shard, so it would time the gateway at every K.

A fixed batch of seeded lb+ queries (distinct sources, spread across
the 4-shard partition) is pushed through ``ShardedRQTreeEngine``
instances with 1, 2, and 4 process-mode shards by a small thread pool
of closed-loop clients.  The merged pool depends on the partition, so
lb+ answers may differ across shard counts; each must contain the
whole-graph lb answer, which is identical at every K.

Results go to ``BENCH_shards.json`` at the repo root (and
``benchmarks/results/shards.txt``).  ``BENCH_QUICK=1`` shrinks the
graph and switches to inline shards for a CI smoke test; the ≥2x
scaling assertion only runs at full size.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.eval.reporting import format_table
from repro.graph.generators import uncertain_gnp
from repro.shard import ShardedRQTreeEngine, build_shard_plan

from conftest import host_info, write_result

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

NUM_NODES = 5000 if not QUICK else 400
MEAN_OUT_DEGREE = 4.0
EXISTENCE_RANGE = (0.1, 0.6)
ETA = 0.3
#: A method that scatters: ``lb`` and ``exact`` submit no sub-query.
METHOD = "lb+"
NUM_QUERIES = 48 if not QUICK else 12
CONCURRENCY = 8
SHARD_COUNTS = (1, 2, 4)
MODE = "process" if not QUICK else "inline"
SEED = 7

JSON_PATH = Path(__file__).parent.parent / "BENCH_shards.json"


def _spread_sources(graph, num_queries):
    """Distinct sources round-robined across the 4-shard partition, so
    consecutive queries land on different workers."""
    plan = build_shard_plan(graph, 4, seed=SEED)
    by_shard = [list(part) for part in plan.shard_nodes]
    sources = []
    cursor = 0
    while len(sources) < num_queries:
        part = by_shard[cursor % len(by_shard)]
        sources.append(part[(cursor // len(by_shard)) % len(part)])
        cursor += 1
    return sources


def _percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def test_shard_count_scaling():
    graph = uncertain_gnp(
        NUM_NODES, MEAN_OUT_DEGREE / NUM_NODES,
        existence_range=EXISTENCE_RANGE, seed=42,
    )
    sources = _spread_sources(graph, NUM_QUERIES)

    records = []
    rows = []
    answers = {}
    lb_answers = {}
    for shards in SHARD_COUNTS:
        engine = ShardedRQTreeEngine.build(
            graph, shards=shards, seed=SEED, mode=MODE,
        )
        transport_used = engine.transport  # shm unless unavailable
        try:
            latencies = [None] * NUM_QUERIES

            def run(index, _engine=engine, _latencies=latencies):
                start = time.perf_counter()
                result = _engine.query(sources[index], eta=ETA,
                                       method=METHOD)
                _latencies[index] = time.perf_counter() - start
                return (sources[index], result.nodes, result.degraded)

            # Warm one query so the first timed one isn't charged for
            # lazily-built caches.
            engine.query(sources[0], eta=ETA, method=METHOD)

            wall_start = time.perf_counter()
            with ThreadPoolExecutor(max_workers=CONCURRENCY) as pool:
                results = list(pool.map(run, range(NUM_QUERIES)))
            wall = time.perf_counter() - wall_start
            lb_answers[shards] = [
                engine.query(source, eta=ETA, method="lb").nodes
                for source in sources
            ]
        finally:
            engine.close()

        assert not any(degraded for _, _, degraded in results)
        answers[shards] = [nodes for _, nodes, _ in results]

        ordered = sorted(latencies)
        qps = NUM_QUERIES / wall
        p50 = _percentile(ordered, 0.50)
        p99 = _percentile(ordered, 0.99)
        records.append(
            {
                "shards": shards,
                "wall_seconds": round(wall, 4),
                "qps": round(qps, 3),
                "p50_ms": round(p50 * 1000, 2),
                "p99_ms": round(p99 * 1000, 2),
            }
        )
        rows.append(
            [shards, f"{wall:.2f}", f"{qps:.2f}",
             f"{p50 * 1000:.0f}", f"{p99 * 1000:.0f}"]
        )

    # lb answers are shard-count-invariant, and every lb+ answer keeps
    # its lb answer; a speedup bought by lost answers would be
    # worthless.
    for shards in SHARD_COUNTS:
        assert lb_answers[shards] == lb_answers[SHARD_COUNTS[0]]
        for lb, got in zip(lb_answers[shards], answers[shards]):
            assert lb <= got

    by_shards = {record["shards"]: record for record in records}
    speedup = by_shards[4]["qps"] / by_shards[1]["qps"]

    table = format_table(
        ["shards", "wall (s)", "qps", "p50 (ms)", "p99 (ms)"], rows
    )
    write_result("shards", table + f"\nqps speedup 4v1: {speedup:.2f}x\n")
    JSON_PATH.write_text(
        json.dumps(
            {
                "experiment": "shard_count_scaling",
                "quick_mode": QUICK,
                "mode": MODE,
                "transport": transport_used,
                "num_nodes": NUM_NODES,
                "num_arcs": graph.num_arcs,
                "existence_range": list(EXISTENCE_RANGE),
                "eta": ETA,
                "method": METHOD,
                "num_queries": NUM_QUERIES,
                "concurrency": CONCURRENCY,
                "seed": SEED,
                "sweep": records,
                "qps_speedup_4v1": round(speedup, 3),
                "host": host_info(),
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    if not QUICK:
        assert speedup >= 2.0, (
            f"4-shard throughput only {speedup:.2f}x the 1-shard "
            "baseline; scatter-gather parallelism is not paying for "
            "itself"
        )
