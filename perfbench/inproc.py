"""In-process workloads: ``paper_lb`` and ``sampled_verify``.

Both call ``RQTreeEngine.query`` directly from one thread in a closed
loop on an engine built from the benchmark's own graph.
"""

from __future__ import annotations

import gc
import sys
from time import perf_counter, process_time
from typing import List, Optional

import common
import oracle
import spans
import workloads

STREAMS = {"paper_lb": workloads.paper_lb_stream,
           "sampled_verify": workloads.sampled_stream}


class OpRecord:
    """What the oracle and the trace need from one answered op."""

    __slots__ = ("op", "nodes", "seconds", "degraded", "candidates",
                 "clusters_visited", "worlds_used")

    def __init__(self, op, result, seconds) -> None:
        self.op = op
        self.seconds = seconds
        self.nodes = set(result.nodes)
        self.degraded = result.degraded
        self.candidates = len(result.candidate_result.candidates)
        self.clusters_visited = result.candidate_result.clusters_visited
        self.worlds_used = result.worlds_used


def _query(engine, op):
    from repro.resilience.budget import QueryBudget

    budget = (QueryBudget(max_worlds=op["max_worlds"])
              if "max_worlds" in op else None)
    return engine.query(op["sources"], op["eta"], method=op["method"],
                        num_samples=op.get("num_samples", 1000),
                        seed=op.get("seed"), budget=budget)


def _build(succ):
    from repro import RQTreeEngine

    return RQTreeEngine.build(workloads.to_program_graph(succ), seed=0)


class Loop:
    """A closed loop over *ops*: next op only after the last returned."""

    def __init__(self) -> None:
        self.records: List[Optional[OpRecord]] = []
        self.errors = 0
        self.wall = 0.0
        self.cpu = 0.0

    def run(self, engine, ops, seconds: Optional[float] = None,
            tracer: Optional[spans.Tracer] = None) -> "Loop":
        start = perf_counter()
        cpu_start = process_time()
        deadline = None if seconds is None else start + seconds
        end = start
        for index, op in enumerate(ops):
            begin = perf_counter()
            if deadline is not None and begin >= deadline:
                break
            if tracer is not None:
                tracer.op = index
            try:
                result = _query(engine, op)
            except Exception as error:  # counted as a failed op
                print(f"op {index} raised {type(error).__name__}: {error}",
                      file=sys.stderr)
                self.errors += 1
                self.records.append(None)
                end = perf_counter()
                continue
            end = perf_counter()
            self.records.append(OpRecord(op, result, end - begin))
        self.wall = end - start
        self.cpu = process_time() - cpu_start
        return self

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def completed(self) -> List[OpRecord]:
        return [r for r in self.records if r is not None]

    @property
    def failed(self) -> int:
        return self.errors + sum(1 for r in self.completed if r.degraded)

    @property
    def ops_per_s(self) -> float:
        return len(self.completed) / self.wall if self.wall > 0 else 0.0


def check(succ, loop: Loop):
    """(mismatches, certified_recall) of every answered op."""
    mismatches = []
    tally = oracle.RecallTally()
    for index, record in enumerate(loop.records):
        if record is None:
            continue
        op = record.op
        if op["method"] == "lb":
            problems = oracle.check_lb(succ, op["sources"], op["eta"], record.nodes)
        else:
            problems = oracle.check_sampled(op["sources"], record.nodes)
        if problems:
            mismatches.append(f"op {index} {op}: {'; '.join(problems)}")
        if index < common.RECALL_PREFIX:
            tally.add(succ, op["sources"], op["eta"], record.nodes)
    return mismatches, tally.recall


def run(workload: str, seed: int, seconds: float) -> dict:
    import repro  # noqa: F401  (importing the package is not set-up work)

    succ = workloads.biomine_graph(workloads.WORKLOADS[workload]["graph_nodes"])
    warm, timed = STREAMS[workload](succ, seed)
    fingerprint = workloads.fingerprint(succ, warm + timed)
    setups = []
    engine = None
    for _ in range(common.SETUP_REPEATS):
        engine = None
        gc.collect()
        begin = perf_counter()
        engine = _build(succ)
        Loop().run(engine, warm)
        setups.append(perf_counter() - begin)
    loop = Loop().run(engine, timed, seconds=seconds)
    peak_rss = common.vm_hwm_mb()
    mismatches, recall = check(succ, loop)
    latencies = [r.seconds * 1000.0 for r in loop.completed]
    m = common.metric
    return {
        "fingerprint": fingerprint,
        "mismatches": mismatches,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            "setup_s": m(common.percentile(setups, 0.5), "s"),
            "peak_rss_mb": m(peak_rss, "MB"),
            "ops_per_s": m(loop.ops_per_s, "ops/s"),
            "query_p50_ms": m(common.percentile(latencies, 0.5), "ms"),
            "ok_ratio": m(1.0 - loop.failed / max(loop.attempted, 1), "ratio"),
            "certified_recall": m(recall, "ratio"),
        },
        # CPU seconds per wall second: below 1 when the host took the CPU away.
        "info": {**common.tails("query", latencies),
                 "cpu_share": (loop.cpu / loop.wall if loop.wall else 0.0, "ratio")},
    }


def run_traced(workload: str, seed: int) -> dict:
    """One traced build, then the same number of ops untraced (phase A)
    and traced (phase B, the next slice of the stream)."""
    from repro.service.metrics import get_registry

    registry = get_registry()
    succ = workloads.biomine_graph(workloads.WORKLOADS[workload]["graph_nodes"])
    warm, timed = STREAMS[workload](succ, seed)
    fingerprint = workloads.fingerprint(succ, warm + timed)
    count = common.TRACE_OPS[workload]
    tracer = spans.Tracer()
    spans.install_inprocess(tracer)
    try:
        engine = _build(succ)
    finally:
        tracer.restore()
    Loop().run(engine, warm)
    untraced = Loop().run(engine, timed[:count])
    before = _counters(registry, engine)
    spans.install_inprocess(tracer)
    try:
        traced = Loop().run(engine, timed[count:2 * count], tracer=tracer)
    finally:
        tracer.restore()
    after = _counters(registry, engine)
    tracer.dump(common.out_path(f"spans_{workload}_{seed}.jsonl"))
    mismatches, _ = check(succ, traced)
    delta = {k: after[k] - before[k] for k in after}
    return {
        "fingerprint": fingerprint,
        "mismatches": mismatches,
        "attempted": traced.attempted,
        "failed": traced.failed + untraced.failed,
        "layers": layer_metrics(tracer, traced, delta, len(succ),
                                len(engine.tree.clusters),
                                traced.ops_per_s / untraced.ops_per_s),
    }


def _counters(registry, engine) -> dict:
    snapshot = registry.snapshot()["counters"]
    return {
        "csr_builds": snapshot.get("accel.csr_builds", 0),
        "bounds_hits": engine.bounds_cache.hits,
        "bounds_misses": engine.bounds_cache.misses,
    }


def layer_metrics(tracer, loop: Loop, delta: dict, n: int, clusters: int,
                  overhead: float) -> dict:
    summary = tracer.summary()
    counts = tracer.counts
    records = loop.completed
    ops = max(len(records), 1)

    def per_op_ms(name, key="total_s"):
        return summary.get(name, {}).get(key, 0.0) * 1000.0 / ops

    def per_call_ms(name):
        row = summary.get(name)
        return row["total_s"] * 1000.0 / row["calls"] if row else 0.0

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    candidates = sum(r.candidates for r in records)
    answers = sum(len(r.nodes) for r in records)
    budgeted = [r for r in records if "max_worlds" in r.op]
    numpy_worlds = counts["accel.mc_kernel.worlds"]
    python_worlds = counts["graph.sampling.python.worlds"]
    bounds = delta["bounds_hits"] + delta["bounds_misses"]
    layers = {
        "core.builder.build_s": summary.get("core.builder", {}).get("total_s", 0.0),
        "partition.bisect_s": summary.get("partition.bisect", {}).get("total_s", 0.0),
        "core.rqtree.clusters": clusters,
        "core.engine.self_ms": per_op_ms("core.engine", "self_s"),
        "core.candidates.self_ms": per_op_ms("core.candidates", "self_s"),
        "core.candidates.clusters_visited": sum(r.clusters_visited for r in records),
        "core.candidates.candidate_ratio": ratio(candidates, n * ops),
        "core.candidates.precision": ratio(answers, candidates),
        "core.outreach.ms": per_op_ms("core.outreach"),
        "core.outreach.cheap_accept_ratio": ratio(counts["core.outreach.cheap_accepts"],
                                                  counts["core.outreach.calls"]),
        "flow.max_flow_ms": per_op_ms("flow.max_flow"),
        "flow.max_flow_calls": calls("flow.max_flow"),
        "core.bounds_cache.hit_ratio": ratio(delta["bounds_hits"], bounds),
        "core.bounds_cache.hits": delta["bounds_hits"],
        "core.bounds_cache.misses": delta["bounds_misses"],
        "graph.paths.mlp_ms": per_op_ms("graph.paths.mlp"),
        "graph.paths.mlp_calls": calls("graph.paths.mlp"),
        "estimators.planner.ms": per_call_ms("estimators.planner"),
        "estimators.worlds_per_query": sum(r.worlds_used for r in records) / ops,
        "estimators.early_stop_ratio": ratio(sum(r.worlds_used for r in budgeted),
                                             sum(r.op["max_worlds"] for r in budgeted)),
        "accel.mc_kernel.ms": per_op_ms("accel.mc_kernel"),
        "accel.mc_kernel.worlds": numpy_worlds,
        "graph.sampling.python_ms": per_op_ms("graph.sampling.python"),
        "graph.sampling.python_worlds": python_worlds,
        "accel.numpy_world_share": ratio(numpy_worlds, numpy_worlds + python_worlds),
        "accel.csr.builds": delta["csr_builds"],
        "trace.overhead_ratio": overhead,
        "trace.ops": len(records),
    }
    for name in ESTIMATORS:
        layers[f"estimators.{name}.ms"] = per_call_ms(f"estimators.{name}")
    for name in DECISIONS:
        key = f"estimators.planner.decisions.{name}"
        layers[key] = counts[key]
    return layers


ESTIMATORS = ("lb", "mc", "lazy", "rss", "exact")
DECISIONS = ("lb", "lb_plus", "mc", "rss", "lazy", "exact")
