"""Live update plane: apply latency, query tails under churn, downtime.

Three questions, one harness (``repro.live.LiveShardedEngine``):

* **How fast do updates land?** A seeded stream of arc-update batches
  is applied end to end (validate → master graph → per-shard payloads →
  slice streaming → epoch publish); the sweep reports apply p50/p99 and
  sustained ops/s.
* **What does churn cost readers?** The same closed-loop lb+ query
  workload runs against a frozen engine and again concurrently with a
  sustained update stream; the delta in qps and p99 is the price of
  epoch publishing and snapshot leasing.  The queries use ``lb+``
  because it scatters to the shards: ``lb`` is answered by the
  gateway alone, so it would time neither the slice stream's drain
  nor the workers.
* **Is rebalancing really zero-downtime?** Queries hammer the engine
  while the topology doubles 2→4; the benchmark asserts the failed- and
  degraded-query count is exactly zero and reports the swap wall time.

Results go to ``BENCH_live.json`` at the repo root (and
``benchmarks/results/live.txt``).  ``BENCH_QUICK=1`` shrinks the graph
and switches to inline shards for the CI smoke + trajectory check.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.graph.generators import uncertain_gnp
from repro.live import LiveShardedEngine

from conftest import host_info, write_result

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

NUM_NODES = 3000 if not QUICK else 300
MEAN_OUT_DEGREE = 4.0
ETA = 0.3
NUM_QUERIES = 48 if not QUICK else 12
NUM_BATCHES = 12 if not QUICK else 4
BATCH_SIZE = 40 if not QUICK else 20
CONCURRENCY = 8
SHARDS = 2
MODE = "process" if not QUICK else "inline"
TRANSPORT = "shm" if not QUICK else "pickle"
SEED = 7
#: A method that scatters: ``lb`` and ``exact`` submit no sub-query.
METHOD = "lb+"

JSON_PATH = Path(__file__).parent.parent / "BENCH_live.json"


def _percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def _update_batches(graph, num_batches, batch_size, seed=SEED):
    rng = random.Random(seed)
    mirror = {(u, v): p for u, v, p in graph.arcs()}
    n = graph.num_nodes
    batches = []
    for _ in range(num_batches):
        ops = []
        while len(ops) < batch_size:
            roll = rng.random()
            if roll < 0.5 and mirror:
                u, v = rng.choice(sorted(mirror))
                p = round(rng.uniform(0.1, 0.6), 3)
                ops.append(("set", u, v, p))
                mirror[(u, v)] = p
            elif roll < 0.8:
                u, v = rng.randrange(n), rng.randrange(n)
                if u == v or (u, v) in mirror:
                    continue
                p = round(rng.uniform(0.1, 0.6), 3)
                ops.append(("set", u, v, p))
                mirror[(u, v)] = p
            elif mirror:
                u, v = rng.choice(sorted(mirror))
                ops.append(("delete", u, v))
                del mirror[(u, v)]
        batches.append(ops)
    return batches


def _sources(graph, count, seed=SEED):
    rng = random.Random(seed + 1)
    return [rng.randrange(graph.num_nodes) for _ in range(count)]


def _query_sweep(engine, sources):
    """Closed-loop workload; returns (qps, p50, p99, failures)."""
    latencies = [None] * len(sources)
    failures = []

    def run(index):
        start = time.perf_counter()
        try:
            result = engine.query(sources[index], eta=ETA, method=METHOD)
            if result.degraded:
                failures.append(("degraded", sources[index]))
        except Exception as error:  # noqa: BLE001 - counted, not raised
            failures.append((repr(error), sources[index]))
        latencies[index] = time.perf_counter() - start

    wall_start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=CONCURRENCY) as pool:
        list(pool.map(run, range(len(sources))))
    wall = time.perf_counter() - wall_start
    ordered = sorted(lat for lat in latencies if lat is not None)
    return (
        len(sources) / wall,
        _percentile(ordered, 0.50),
        _percentile(ordered, 0.99),
        failures,
    )


def test_live_update_plane():
    graph = uncertain_gnp(
        NUM_NODES, MEAN_OUT_DEGREE / NUM_NODES,
        existence_range=(0.1, 0.6), seed=42,
    )
    sources = _sources(graph, NUM_QUERIES)
    records, lines = [], []

    engine = LiveShardedEngine.build(
        graph, shards=SHARDS, seed=SEED, mode=MODE, transport=TRANSPORT,
    )
    try:
        engine.query(sources[0], eta=ETA, method=METHOD)  # warm caches

        # -- frozen baseline ------------------------------------------
        qps, p50, p99, failures = _query_sweep(engine, sources)
        assert not failures, failures[:3]
        records.append({
            "workload": "query_frozen", "qps": round(qps, 3),
            "p50_ms": round(p50 * 1000, 2),
            "p99_ms": round(p99 * 1000, 2),
        })

        # -- apply latency --------------------------------------------
        batches = _update_batches(graph, NUM_BATCHES, BATCH_SIZE)
        apply_latencies = []
        for batch in batches[: NUM_BATCHES // 2]:
            start = time.perf_counter()
            engine.apply(batch)
            apply_latencies.append(time.perf_counter() - start)
        ordered = sorted(apply_latencies)
        total = sum(apply_latencies)
        ops_per_second = (len(apply_latencies) * BATCH_SIZE) / total
        records.append({
            "workload": "apply",
            # "qps" here is applied ops/s so the trajectory check can
            # hold the write path to the same 30% band as the readers.
            "qps": round(ops_per_second, 3),
            "p50_ms": round(_percentile(ordered, 0.50) * 1000, 2),
            "p99_ms": round(_percentile(ordered, 0.99) * 1000, 2),
        })

        # -- queries during a sustained update stream -----------------
        stop = threading.Event()

        def updater():
            remaining = list(batches[NUM_BATCHES // 2:])
            while remaining and not stop.is_set():
                engine.apply(remaining.pop(0))

        churn = threading.Thread(target=updater)
        churn.start()
        try:
            qps_churn, p50_churn, p99_churn, failures = _query_sweep(
                engine, sources
            )
        finally:
            stop.set()
            churn.join(timeout=120)
        assert not failures, failures[:3]
        records.append({
            "workload": "query_during_updates",
            "qps": round(qps_churn, 3),
            "p50_ms": round(p50_churn * 1000, 2),
            "p99_ms": round(p99_churn * 1000, 2),
        })

        # -- zero-downtime rebalance ----------------------------------
        stop = threading.Event()
        rebalance_failures = []
        completed = [0]

        def hammer():
            rng = random.Random(99)
            while not stop.is_set():
                source = sources[rng.randrange(len(sources))]
                try:
                    result = engine.query(source, eta=ETA, method=METHOD)
                    if result.degraded:
                        rebalance_failures.append(("degraded", source))
                    completed[0] += 1
                except Exception as error:  # noqa: BLE001
                    rebalance_failures.append((repr(error), source))

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        rebalance_start = time.perf_counter()
        try:
            engine.rebalance(SHARDS * 2)
        finally:
            rebalance_wall = time.perf_counter() - rebalance_start
            time.sleep(0.2)  # let post-swap queries land on the new plan
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
        # The headline claim: downtime is measured in failed queries,
        # and the number is zero.
        assert not rebalance_failures, rebalance_failures[:3]
        assert completed[0] > 0
        records.append({
            "workload": "rebalance",
            "rebalance_seconds": round(rebalance_wall, 4),
            "queries_during_swap": completed[0],
            "failed_queries": 0,
        })
    finally:
        engine.close()

    for record in records:
        lines.append("  ".join(f"{k}={v}" for k, v in record.items()))
    churn_cost = records[0]["qps"] / max(records[2]["qps"], 1e-9)
    summary = (
        "\n".join(lines)
        + f"\nfrozen/churn qps ratio: {churn_cost:.2f}x\n"
    )
    write_result("live", summary)
    JSON_PATH.write_text(
        json.dumps(
            {
                "experiment": "live_update_plane",
                "quick_mode": QUICK,
                "mode": MODE,
                "transport": TRANSPORT,
                "num_nodes": NUM_NODES,
                "num_arcs": graph.num_arcs,
                "eta": ETA,
                "method": METHOD,
                "shards": SHARDS,
                "num_queries": NUM_QUERIES,
                "batch_size": BATCH_SIZE,
                "concurrency": CONCURRENCY,
                "seed": SEED,
                "sweep": records,
                "host": host_info(),
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    test_live_update_plane()
    print(JSON_PATH.read_text(encoding="utf-8"))
