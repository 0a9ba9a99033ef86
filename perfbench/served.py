"""Served workloads: ``served_read`` and ``served_churn``.

The server is ``python -m repro serve --live --shards 2 --shard-mode
inline --workers 1`` (aio frontend) in its own process group, serving
the ``sampled_verify`` graph.  The client is this process: one
keep-alive connection in a closed loop with no think time, so the
server never holds more than one request and one worker serves them
all.  Shards run inline in the server process: with process shards the
client, gateway and two shard workers passed every query between four
processes on two cores, and the wake-ups between them, not the
program, set the latency.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from time import perf_counter
from typing import Dict, List, Optional

import common
import oracle
import workloads

#: Timed ops generated per run, more than a timed phase can use.
STREAM_LENGTH = 50_000
SERVER_FLAGS = ["--live", "--shards", "2", "--shard-mode", "inline", "--workers", "1"]


class Server:
    """One server process group; ``stop`` waits until all of it ended."""

    def __init__(self, graph_path, traced: bool = False) -> None:
        entry = ([str(common.ROOT / "perfbench" / "launcher.py")] if traced
                 else ["-m", "repro"])
        env = dict(os.environ)
        env["PYTHONPATH"] = str(common.ROOT / "src")
        self.log = open(common.out_path("server.log"), "ab")
        self.process = subprocess.Popen(
            [sys.executable, *entry, "serve", "--graph", str(graph_path),
             "--host", "127.0.0.1", "--port", "0", *SERVER_FLAGS],
            cwd=str(common.ROOT), env=env, stdout=subprocess.PIPE,
            stderr=self.log, start_new_session=True,
            # A shell that starts this benchmark in the background hands
            # it SIGINT ignored; the server's clean shutdown needs it.
            preexec_fn=_default_sigint,
        )
        line = self.process.stdout.readline().decode()
        if " on http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        address = line.split(" on http://")[1].split()[0]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=120)

    def get(self, path: str) -> dict:
        conn = self.connect()
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return json.loads(response.read())
        finally:
            conn.close()

    def wait_healthy(self, timeout: float = 120.0) -> dict:
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.get("/healthz")
            except (OSError, http.client.HTTPException, ValueError):
                if time.monotonic() > deadline or self.process.poll() is not None:
                    raise
                time.sleep(0.02)

    def peak_rss_mb(self) -> float:
        pids = [self.process.pid] + common.descendants(self.process.pid)
        return sum(common.vm_hwm_mb(pid) for pid in pids)

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown) and wait until every process
        of the server has ended.  A server that ignores it is killed;
        its shard workers and resource tracker then exit on their own
        and release the shared memory, and are killed only if they hang.
        """
        pid = self.process.pid
        family = common.descendants(pid)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
        self.process.wait()
        deadline = time.monotonic() + 20
        while True:
            alive = [p for p in family if _state(p) != "Z"]
            if not alive:
                break
            if time.monotonic() > deadline:
                for p in alive:
                    try:
                        os.kill(p, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
            time.sleep(0.05)
        self.process.stdout.close()
        self.log.close()


def _default_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _state(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as handle:
            stat = handle.read()
        return stat[stat.rfind(")") + 2]
    except OSError:
        return "Z"


class Outcome:
    __slots__ = ("index", "op", "seconds", "status", "body", "error")

    def __init__(self, index, op, seconds, status=None, body=None, error=None):
        self.index, self.op, self.seconds = index, op, seconds
        self.status, self.body, self.error = status, body, error

    @property
    def ok(self) -> bool:
        return (self.error is None and self.status == 200
                and not (self.body or {}).get("quality", {}).get("degraded", False))


def closed_loop(server: Server, ops, seconds: Optional[float]) -> dict:
    """Run *ops* over one keep-alive connection until done or timed out."""
    outcomes: List[Outcome] = []
    conn = server.connect()
    start = perf_counter()
    deadline = None if seconds is None else start + seconds
    end = start
    try:
        for index, op in enumerate(ops):
            begin = perf_counter()
            if deadline is not None and begin >= deadline:
                break
            path = "/update" if "updates" in op else "/query"
            try:
                conn.request("POST", path, json.dumps(op).encode(),
                             {"Content-Type": "application/json"})
                response = conn.getresponse()
                raw = response.read()
                end = perf_counter()
                outcomes.append(Outcome(
                    index, op, end - begin, response.status,
                    json.loads(raw) if response.status == 200 else None))
            except (OSError, http.client.HTTPException, ValueError) as error:
                conn.close()
                conn = server.connect()
                end = perf_counter()
                outcomes.append(Outcome(index, op, end - begin,
                                        error=f"{type(error).__name__}: {error}"))
    finally:
        conn.close()
    completed = sum(1 for o in outcomes if o.error is None)
    wall = end - start
    return {"outcomes": outcomes,
            "ops_per_s": completed / wall if wall > 0 else 0.0}


def check(succ, outcomes: List[Outcome], final_epoch: int):
    """Check every lb answer at its epoch by replaying the update log.

    Returns (mismatches, certified_recall).
    """
    mismatches: List[str] = []
    batches: Dict[int, list] = {}
    for o in outcomes:
        if "updates" in o.op and o.ok:
            batches[o.body["epoch"]] = o.op["updates"]
    by_epoch: Dict[int, List[Outcome]] = {}
    for o in outcomes:
        if "updates" not in o.op and o.ok:
            by_epoch.setdefault(o.body["quality"]["epoch"], []).append(o)
    replay_epoch = max(batches, default=0)
    if replay_epoch != final_epoch:
        mismatches.append(f"replayed epoch {replay_epoch} != /healthz epoch {final_epoch}")
    graph = [dict(row) for row in succ]
    tally = oracle.RecallTally()
    for epoch in range(0, max([replay_epoch, *by_epoch]) + 1):
        if epoch > 0:
            if epoch not in batches:
                if any(e >= epoch for e in by_epoch):
                    mismatches.append(f"epoch {epoch} has no batch in the update log")
                break
            workloads.apply_batch(graph, batches[epoch])
        for o in by_epoch.get(epoch, []):
            op = o.op
            answer = set(o.body["nodes"])
            if op["method"] == "lb":
                problems = oracle.check_lb(graph, op["sources"], op["eta"], answer)
            else:
                problems = oracle.check_sampled(op["sources"], answer)
            if problems:
                mismatches.append(f"op {o.index} @epoch {epoch} {op}: {'; '.join(problems)}")
            if o.index < common.RECALL_PREFIX:
                tally.add(graph, op["sources"], op["eta"], answer)
    return mismatches, tally.recall


def _inputs(workload: str, seed: int):
    succ = workloads.biomine_graph(workloads.WORKLOADS[workload]["graph_nodes"])
    warm, timed = workloads.served_stream(succ, seed, STREAM_LENGTH,
                                          churn=workload == "served_churn")
    graph_path = common.out_path(f"graph_{workload}_{seed}_{os.getpid()}.txt")
    workloads.write_edge_list(succ, graph_path)
    return succ, warm, timed, graph_path


def _start(graph_path, warm, traced=False) -> tuple:
    begin = perf_counter()
    server = Server(graph_path, traced=traced)
    try:
        server.wait_healthy()
        warmup = closed_loop(server, warm, None)
    except BaseException:
        server.stop()
        raise
    failed = sum(1 for o in warmup["outcomes"] if not o.ok)
    if failed:
        server.stop()
        raise RuntimeError(f"{failed} warm-up ops failed")
    return server, perf_counter() - begin


def _summarise(outcomes: List[Outcome]):
    queries = [o.seconds * 1000.0 for o in outcomes if "updates" not in o.op and o.error is None]
    updates = [o.seconds * 1000.0 for o in outcomes if "updates" in o.op and o.error is None]
    failed = sum(1 for o in outcomes if not o.ok)
    return queries, updates, failed


def run(workload: str, seed: int, seconds: float) -> dict:
    succ, warm, timed, graph_path = _inputs(workload, seed)
    fingerprint = workloads.fingerprint(succ, warm + timed)
    setups, rss = [], []
    try:
        for repeat in range(common.SETUP_REPEATS):
            server, setup = _start(graph_path, warm)
            setups.append(setup)
            rss.append(server.peak_rss_mb())
            if repeat + 1 < common.SETUP_REPEATS:
                server.stop()
        try:
            phase = closed_loop(server, timed, seconds)
            rss_end = server.peak_rss_mb()
            final_epoch = server.get("/healthz").get("epoch", 0)
        finally:
            server.stop()
    finally:
        graph_path.unlink()
    outcomes = phase["outcomes"]
    mismatches, recall = check(succ, outcomes, final_epoch)
    queries, updates, failed = _summarise(outcomes)
    m = common.metric
    return {
        "fingerprint": fingerprint,
        "mismatches": mismatches,
        "attempted": len(outcomes),
        "failed": failed,
        "final_epoch": final_epoch,
        "metrics": {
            "setup_s": m(common.percentile(setups, 0.5), "s"),
            "peak_rss_mb": m(common.percentile(rss, 0.5), "MB"),
            "ops_per_s": m(phase["ops_per_s"], "ops/s"),
            "query_p50_ms": m(common.percentile(queries, 0.5), "ms"),
            "ok_ratio": m(1.0 - failed / max(len(outcomes), 1), "ratio"),
            "certified_recall": m(recall, "ratio"),
        },
        "update_ms": updates,
        "info": {**common.tails("query", queries),
                 "update_p50_ms": (common.percentile(updates, 0.5), "ms"),
                 "update_p90_ms": (common.percentile(updates, 0.9), "ms"),
                 "update_count": (len(updates), "count"),
                 "rss_at_end_mb": (rss_end, "MB")},
    }


def run_traced(workload: str, seed: int) -> dict:
    """The same fixed op slice on a plain server (phase A) and on the
    span launcher (phase B); per-layer numbers are phase B's
    ``/metrics`` deltas plus the launcher's spans."""
    succ, warm, timed, graph_path = _inputs(workload, seed)
    fingerprint = workloads.fingerprint(succ, warm + timed)
    ops = timed[:common.TRACE_OPS[workload]]
    try:
        server, _ = _start(graph_path, warm)
        try:
            untraced = closed_loop(server, ops, None)
        finally:
            server.stop()
        server, _ = _start(graph_path, warm, traced=True)
        try:
            before = server.get("/metrics")
            traced = closed_loop(server, ops, None)
            after = server.get("/metrics")
            final_epoch = server.get("/healthz").get("epoch", 0)
        finally:
            server.stop()
    finally:
        graph_path.unlink()
    outcomes = traced["outcomes"]
    mismatches, _ = check(succ, outcomes, final_epoch)
    _, updates, failed = _summarise(outcomes)
    failed += _summarise(untraced["outcomes"])[2]
    layers = layer_metrics(before, after, len(outcomes), updates)
    layers["trace.overhead_ratio"] = traced["ops_per_s"] / untraced["ops_per_s"]
    layers["trace.ops"] = len(outcomes)
    return {"fingerprint": fingerprint, "mismatches": mismatches,
            "attempted": len(outcomes), "failed": failed, "layers": layers}


class _Delta:
    """Differences between two ``/metrics`` snapshots."""

    def __init__(self, before: dict, after: dict) -> None:
        self.before, self.after = before, after

    def counter(self, name: str) -> float:
        return (self.after["counters"].get(name, 0)
                - self.before["counters"].get(name, 0))

    def hist(self, name: str) -> dict:
        empty = {"count": 0, "sum": 0.0, "buckets": {}}
        a = self.after["histograms"].get(name, empty)
        b = self.before["histograms"].get(name, empty)
        buckets = {k: v - b["buckets"].get(k, 0) for k, v in a["buckets"].items()}
        return {"count": a["count"] - b["count"], "sum": a["sum"] - b["sum"],
                "buckets": buckets}

    def mean_ms(self, *names: str) -> float:
        rows = [self.hist(n) for n in names]
        count = sum(r["count"] for r in rows)
        return sum(r["sum"] for r in rows) * 1000.0 / count if count else 0.0

    def quantile_ms(self, name: str, q: float) -> float:
        """Bucket-interpolated quantile of the observations in between."""
        row = self.hist(name)
        if not row["count"]:
            return 0.0
        rank = q * row["count"]
        seen, lower = 0, 0.0
        for bound, count in sorted(((float(k), v) for k, v in row["buckets"].items())):
            if count and seen + count >= rank:
                return (lower + (rank - seen) / count * (bound - lower)) * 1000.0
            seen += count
            lower = bound
        return lower * 1000.0

    def cache(self, key: str) -> float:
        return (self.after["service"]["result_cache"][key]
                - self.before["service"]["result_cache"][key])


def layer_metrics(before: dict, after: dict, ops: int, updates: List[float]) -> dict:
    d = _Delta(before, after)

    def ratio(a, b):
        return a / b if b else 0.0

    shard_hists = sorted(n for n in after["histograms"]
                         if n.startswith("shard.") and n.split(".")[1].isdigit())
    scatter = d.mean_ms("shard.scatter_seconds")
    worker = d.mean_ms(*shard_hists) if shard_hists else 0.0
    hits, misses = d.cache("hits"), d.cache("misses")
    mlp = d.hist("bench.graph.paths.mlp_seconds")
    return {
        "service.queue_wait_ms": d.mean_ms("service.queue_wait_seconds"),
        "service.handler_ms": d.mean_ms("service.http.request_seconds"),
        "service.result_cache.hit_ratio": ratio(hits, hits + misses),
        "service.result_cache.hits": hits,
        "service.deduped_ratio": ratio(d.counter("service.deduped"),
                                       d.counter("service.submitted")),
        "shard.scatter_ms": scatter,
        "shard.worker_ms": worker,
        "shard.transport_wait_ms": max(scatter - worker, 0.0),
        "shard.refine_ms": d.mean_ms("shard.refine_seconds"),
        "shard.stale_response_ratio": ratio(d.counter("live.stale_shard_responses"),
                                            d.counter("shard.queries")),
        "shard.stale_responses": d.counter("live.stale_shard_responses"),
        "live.apply_ms": d.mean_ms("live.apply_seconds"),
        "live.apply_p90_ms": d.quantile_ms("live.apply_seconds", 0.9),
        "live.ops_per_update": ratio(d.counter("live.ops_applied"),
                                     d.counter("live.updates")),
        "live.ops_applied": d.counter("live.ops_applied"),
        "graph.paths.mlp_ms": mlp["sum"] * 1000.0 / max(ops, 1),
        "graph.paths.mlp_calls": mlp["count"],
        "accel.csr.builds": d.counter("accel.csr_builds"),
        "estimators.mc.ms": d.mean_ms("estimator.mc.seconds"),
        "estimators.lb.ms": d.mean_ms("estimator.lb.seconds"),
        "client.update_p50_ms": common.percentile(updates, 0.5),
        "client.update_p90_ms": common.percentile(updates, 0.9),
    }
