"""Benchmark entry point.

    python3 perfbench/run.py --workload paper_lb --seed 1 --seconds 14 --trace 0

Builds nothing: the program is the pure-Python package under ``src/``.
Prints the input fingerprint and every metric with its unit, then, as
the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones.  Exits 1 on any oracle
mismatch, and non-zero without a result when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

# One BLAS/OpenMP thread for this process and the servers it starts:
# on a small host a second BLAS thread only contends with the server,
# its shard workers and the client, and makes set-up times wander.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

WORKLOADS = ("paper_lb", "sampled_verify", "served_read", "served_churn")

#: name -> (unit, better).  Every workload reports every metric.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ops_per_s": ("ops/s", "higher"),
    "query_p50_ms": ("ms", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "certified_recall": ("ratio", "higher"),
}

PER_LAYER = {
    "core.builder.build_s": ("s", "lower"),
    "partition.bisect_s": ("s", "lower"),
    "core.rqtree.clusters": ("count", "lower"),
    "core.engine.self_ms": ("ms", "lower"),
    "core.candidates.self_ms": ("ms", "lower"),
    "core.candidates.clusters_visited": ("count", "lower"),
    "core.candidates.candidate_ratio": ("ratio", "lower"),
    "core.candidates.precision": ("ratio", "higher"),
    "core.outreach.ms": ("ms", "lower"),
    "core.outreach.cheap_accept_ratio": ("ratio", "higher"),
    "flow.max_flow_ms": ("ms", "lower"),
    "flow.max_flow_calls": ("count", "lower"),
    "core.bounds_cache.hit_ratio": ("ratio", "higher"),
    "core.bounds_cache.hits": ("count", "higher"),
    "core.bounds_cache.misses": ("count", "lower"),
    "graph.paths.mlp_ms": ("ms", "lower"),
    "graph.paths.mlp_calls": ("count", "lower"),
    "estimators.lb.ms": ("ms", "lower"),
    "estimators.mc.ms": ("ms", "lower"),
    "estimators.lazy.ms": ("ms", "lower"),
    "estimators.rss.ms": ("ms", "lower"),
    "estimators.exact.ms": ("ms", "lower"),
    "estimators.planner.ms": ("ms", "lower"),
    "estimators.planner.decisions.lb": ("count", "lower"),
    "estimators.planner.decisions.lb_plus": ("count", "lower"),
    "estimators.planner.decisions.mc": ("count", "lower"),
    "estimators.planner.decisions.rss": ("count", "lower"),
    "estimators.planner.decisions.lazy": ("count", "lower"),
    "estimators.planner.decisions.exact": ("count", "lower"),
    "estimators.worlds_per_query": ("count", "lower"),
    "estimators.early_stop_ratio": ("ratio", "lower"),
    "accel.mc_kernel.ms": ("ms", "lower"),
    "accel.mc_kernel.worlds": ("count", "lower"),
    "graph.sampling.python_ms": ("ms", "lower"),
    "graph.sampling.python_worlds": ("count", "lower"),
    "accel.numpy_world_share": ("ratio", "higher"),
    "accel.csr.builds": ("count", "lower"),
    "service.queue_wait_ms": ("ms", "lower"),
    "service.handler_ms": ("ms", "lower"),
    "service.result_cache.hit_ratio": ("ratio", "higher"),
    "service.result_cache.hits": ("count", "higher"),
    "service.deduped_ratio": ("ratio", "higher"),
    "shard.scatter_ms": ("ms", "lower"),
    "shard.worker_ms": ("ms", "lower"),
    "shard.transport_wait_ms": ("ms", "lower"),
    "shard.refine_ms": ("ms", "lower"),
    "shard.stale_response_ratio": ("ratio", "lower"),
    "shard.stale_responses": ("count", "lower"),
    "live.apply_ms": ("ms", "lower"),
    "live.apply_p90_ms": ("ms", "lower"),
    "live.ops_per_update": ("count", "higher"),
    "live.ops_applied": ("count", "higher"),
    "client.update_p50_ms": ("ms", "lower"),
    "client.update_p90_ms": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "higher"),
    "trace.ops": ("count", "higher"),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def execute(args) -> dict:
    if not (common.ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"program not found under {common.ROOT / 'src'}; "
                         "run from a full checkout")
    sys.path.insert(0, str(common.ROOT / "src"))
    if args.workload.startswith("served"):
        import served as workload_module
    else:
        import inproc as workload_module
    if args.trace:
        report = workload_module.run_traced(args.workload, args.seed)
        layers = report.pop("layers")
        unknown = set(layers) - set(PER_LAYER)
        if unknown:
            raise AssertionError(f"unlisted per-layer metrics: {sorted(unknown)}")
        report["metrics"] = {
            name: common.metric(float(layers.get(name, 0.0)), unit)
            for name, (unit, _) in PER_LAYER.items()
        }
    else:
        report = workload_module.run(args.workload, args.seed, args.seconds)
    return report


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so servers are stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    report = execute(args)
    print("fingerprint " + json.dumps(report["fingerprint"], sort_keys=True))
    for name, value in report["metrics"].items():
        print(f"{name} {value['value']:.6g} {value['unit']}")
    for name, (value, unit) in report.get("info", {}).items():
        print(f"info {name} {value:.6g} {unit}")
    for line in report["mismatches"][:20]:
        print(f"MISMATCH {line}", file=sys.stderr)
    correct = not report["mismatches"]
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
