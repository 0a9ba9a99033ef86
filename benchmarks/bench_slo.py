"""SLO under production-shaped traffic: the loadgen harness as a bench.

Where ``bench_shards`` and ``bench_transport`` measure the serving
stack under a uniform closed-loop hammer, this bench asks the
question an operator actually has: *with production-shaped traffic —
Zipf-skewed sources, a diurnal rate curve, a 10% update stream, and a
fault storm through the middle of the run — what p99, degraded-answer
rate, and cache hit rate does the service deliver?*

One seeded ``mixed``-profile schedule is generated and replayed
against the asyncio gateway over loopback, open-loop, via
:func:`repro.loadgen.drive`.

Results go to ``BENCH_slo.json`` at the repo root (and
``benchmarks/results/slo.txt``).  ``BENCH_QUICK=1`` shrinks the graph
and the run for the CI smoke + trajectory check, which holds ``qps``
to the usual 30% floor and additionally holds ``p99_ms`` (2x band)
and ``degraded_rate`` (+0.15 absolute) as ceilings.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro import RQTreeEngine
from repro.graph.generators import nethept_like
from repro.loadgen import drive, generate_schedule
from repro.service.aio_gateway import AioGateway
from repro.service.metrics import MetricsRegistry, set_registry
from repro.service.server import ReliabilityService

from conftest import host_info, write_result

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

NUM_NODES = 1000 if not QUICK else 300
PROFILE = "mixed"
DURATION_SECONDS = 12.0 if not QUICK else 4.0
TARGET_QPS = 40.0 if not QUICK else 15.0
WORKERS = 4 if not QUICK else 2
SEED = 42

JSON_PATH = Path(__file__).parent.parent / "BENCH_slo.json"


def test_slo_under_mixed_traffic():
    graph = nethept_like(n=NUM_NODES, seed=5)
    num_arcs = graph.num_arcs  # live updates mutate the graph in place
    schedule = generate_schedule(
        PROFILE,
        seed=SEED,
        duration_seconds=DURATION_SECONDS,
        target_qps=TARGET_QPS,
        num_nodes=graph.num_nodes,
    )
    # A fresh registry: the report's cache/shed numbers are metric
    # deltas over this run alone.
    set_registry(MetricsRegistry())
    engine = RQTreeEngine.build(graph, seed=7)
    service = ReliabilityService(engine, workers=WORKERS, live=True)
    server = AioGateway(service, host="127.0.0.1", port=0).start()
    try:
        report = drive(schedule, server.url, arm_storms=True)
    finally:
        server.stop()
        set_registry(MetricsRegistry())
    record = {
        "workload": f"{PROFILE}_aio",
        "qps": report["throughput"]["achieved_qps"],
        "p50_ms": report["latency_ms"]["p50"],
        "p99_ms": report["latency_ms"]["p99"],
        "degraded_rate": report["degraded"]["rate"],
        "error_rate": report["errors"]["rate"],
        "cache_hit_rate": report["cache"]["hit_rate"],
        "shed_rate": report["shed"]["rate"],
        "storms": report["requests"]["storms"],
        "completed": report["requests"]["completed"],
        "updates": report["requests"]["updates"],
    }
    # The bench's own sanity floor: traffic flowed, the storm fired,
    # and the run was not a wall of errors.
    assert record["completed"] > 0, record
    assert record["storms"] == 1, record
    assert record["error_rate"] <= 0.05, record

    write_result(
        "slo",
        "  ".join(f"{key}={value}" for key, value in record.items()) + "\n",
    )
    JSON_PATH.write_text(
        json.dumps(
            {
                "experiment": "slo_mixed_traffic",
                "quick_mode": QUICK,
                "profile": PROFILE,
                "num_nodes": NUM_NODES,
                "num_arcs": num_arcs,
                "duration_seconds": DURATION_SECONDS,
                "target_qps": TARGET_QPS,
                "offered_qps": round(schedule.offered_qps, 3),
                "workers": WORKERS,
                "seed": SEED,
                "sweep": [record],
                "host": host_info(),
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    test_slo_under_mixed_traffic()
    print(JSON_PATH.read_text(encoding="utf-8"))
