"""Self-healing shard fabric: respawn latency and hedged tail latency.

Two claims from the supervisor design are measured here:

1. **Respawn is a re-attach, not a rebuild.**  The gateway owns the
   shm CSR segments and caches each shard's serialized RQ-tree, so
   respawning a SIGKILLed worker costs a warm-standby adoption plus a
   ~1.2KB init payload — not a graph rebuild.  Measured as
   SIGKILL-to-healthy wall time (monitor detection + standby adoption
   + half-open probe), target < 150 ms at n=5000.

2. **Hedging beats timeout-retry for stragglers.**  With one shard
   frozen (SIGSTOP — alive but unresponsive, the worst case for
   timeout-based recovery), a hedged dispatch promotes a warm standby
   after a short delay and takes its answer, while the unhedged path
   must burn the full per-attempt timeout before its one retry.
   Measured as per-query latency against the frozen shard, hedged vs
   unhedged.

Results go to ``BENCH_supervisor.json`` at the repo root (and
``benchmarks/results/supervisor.txt``).  ``BENCH_QUICK=1`` shrinks the
graph and repetition counts; the latency assertions only run at full
size (CI boxes are noisy, and the JSON record is the artifact that
matters for trajectory checks).
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import time
from pathlib import Path

from repro.graph.generators import uncertain_gnp
from repro.eval.reporting import format_table
from repro.shard import ShardedRQTreeEngine, SupervisorPolicy

from conftest import host_info, write_result

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

NUM_NODES = 5000 if not QUICK else 400
MEAN_OUT_DEGREE = 4.0
EXISTENCE_RANGE = (0.1, 0.6)
ETA = 0.3
SHARDS = 4
SEED = 7
RESPAWN_KILLS = 5 if not QUICK else 2
STRAGGLER_ROUNDS = 5 if not QUICK else 2
#: A method that scatters: ``lb`` and ``exact`` are answered by the
#: gateway alone, so a dead or frozen shard would never be asked.
METHOD = "lb+"
RETRY_TIMEOUT_SECONDS = 0.5
HEDGE_AFTER_SECONDS = 0.05

#: Tight detection intervals: the benchmark measures the recovery
#: machinery, not the monitor's idle cadence.
POLICY = SupervisorPolicy(
    ping_interval_seconds=0.02,
    backoff_base_seconds=0.02,
    standby_workers=1,
)

JSON_PATH = Path(__file__).parent.parent / "BENCH_supervisor.json"


def _build(graph, **kwargs):
    return ShardedRQTreeEngine.build(
        graph, shards=SHARDS, seed=SEED, mode="process",
        supervise=True, supervisor_policy=POLICY, **kwargs,
    )


def _wait_index_cached(engine, timeout=300.0):
    """Block until every shard's RQ-tree is cached gateway-side, so a
    respawn is guaranteed to take the re-attach fast path."""
    supervisor = engine.supervisor
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all("tree_json" in slot.payload for slot in supervisor._slots):
            return
        time.sleep(0.02)
    raise AssertionError("shard index prefetch did not finish")


def _wait_recovered(engine, shard_id, respawns_before, timeout=60.0):
    """Wait until the shard is healthy again *on a new worker* (the
    respawn counter moved — plain "healthy" would race the monitor's
    detection of the kill)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        state = engine.shard_states()[shard_id]
        if (state["state"] == "healthy"
                and state["respawns"] > respawns_before):
            return time.monotonic()
        time.sleep(0.001)
    raise AssertionError(f"shard {shard_id} did not return to healthy")


def _wait_standby(engine, timeout=120.0):
    """Wait for a *warm* standby (booted, idle) — each adoption
    consumes one and the monitor replenishes asynchronously."""
    supervisor = engine.supervisor
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with supervisor._standby_lock:
            if any(s.is_alive() and s.is_warm()
                   for s in supervisor._standbys):
                return
        time.sleep(0.02)
    raise AssertionError("standby pool did not replenish")


def test_supervisor_recovery_latency():
    graph = uncertain_gnp(
        NUM_NODES, MEAN_OUT_DEGREE / NUM_NODES,
        existence_range=EXISTENCE_RANGE, seed=42,
    )
    stopped_pids = []

    # -- experiment 1: SIGKILL-to-healthy respawn latency --------------
    respawn_ms = []
    with _build(graph) as engine:
        source = 0
        victim = engine.plan.owner(source)
        engine.query(source, eta=ETA, method=METHOD)  # warm caches
        _wait_index_cached(engine)
        for _ in range(RESPAWN_KILLS):
            _wait_standby(engine)
            respawns = engine.shard_states()[victim]["respawns"]
            pid = engine.supervisor.client(victim)._process.pid
            killed_at = time.monotonic()
            os.kill(pid, signal.SIGKILL)
            healthy_at = _wait_recovered(engine, victim, respawns)
            respawn_ms.append((healthy_at - killed_at) * 1000.0)
            # The fabric must be answering (not just pinging) again.
            result = engine.query(source, eta=ETA, method=METHOD)
            assert not result.degraded, result.degraded_reason

    respawn_median = statistics.median(respawn_ms)

    # -- experiment 2: hedged vs unhedged p99 under one slow shard -----
    latencies = {}
    configs = (
        ("unhedged", dict(retry_timeout_seconds=RETRY_TIMEOUT_SECONDS)),
        ("hedged", dict(retry_timeout_seconds=RETRY_TIMEOUT_SECONDS,
                        hedge_after_seconds=HEDGE_AFTER_SECONDS)),
    )
    for label, kwargs in configs:
        samples = []
        with _build(graph, **kwargs) as engine:
            source = 0
            victim = engine.plan.owner(source)
            engine.query(source, eta=ETA, method=METHOD)
            _wait_index_cached(engine)
            for _ in range(STRAGGLER_ROUNDS):
                _wait_standby(engine)
                pid = engine.supervisor.client(victim)._process.pid
                os.kill(pid, signal.SIGSTOP)  # alive but unresponsive
                stopped_pids.append(pid)
                start = time.perf_counter()
                result = engine.query(source, eta=ETA, method=METHOD)
                samples.append(time.perf_counter() - start)
                assert not result.degraded, result.degraded_reason
                # Recovery differs by path: a hedge swaps the primary
                # client in place (shard stays healthy), a timeout-retry
                # respawns it.  Either way the frozen pid is gone from
                # the primary slot once the shard has truly moved on.
                deadline = time.monotonic() + 60.0
                while time.monotonic() < deadline:
                    state = engine.shard_states()[victim]["state"]
                    current = engine.supervisor.client(victim)
                    if (state == "healthy"
                            and current._process.pid != pid):
                        break
                    time.sleep(0.005)
                else:
                    raise AssertionError(
                        f"shard {victim} still on frozen worker {pid}"
                    )
        latencies[label] = sorted(samples)

    # A SIGSTOPped worker ignores the SIGTERM close() sends; reap the
    # frozen processes so the benchmark leaves nothing behind.
    for pid in stopped_pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    unhedged_p99 = latencies["unhedged"][-1] * 1000.0
    hedged_p99 = latencies["hedged"][-1] * 1000.0

    rows = [
        ["respawn-to-healthy (median ms)", f"{respawn_median:.1f}"],
        ["respawn-to-healthy (max ms)", f"{max(respawn_ms):.1f}"],
        ["straggler p99, unhedged (ms)", f"{unhedged_p99:.1f}"],
        ["straggler p99, hedged (ms)", f"{hedged_p99:.1f}"],
    ]
    write_result(
        "supervisor", format_table(["metric", "value"], rows) + "\n"
    )
    JSON_PATH.write_text(
        json.dumps(
            {
                "experiment": "supervisor_recovery",
                "quick_mode": QUICK,
                "num_nodes": NUM_NODES,
                "num_arcs": graph.num_arcs,
                "shards": SHARDS,
                "eta": ETA,
                "method": METHOD,
                "seed": SEED,
                "respawn_kills": RESPAWN_KILLS,
                "respawn_to_healthy_ms": [
                    round(ms, 2) for ms in respawn_ms
                ],
                "respawn_to_healthy_median_ms": round(respawn_median, 2),
                "respawn_target_ms": 150.0,
                "straggler_rounds": STRAGGLER_ROUNDS,
                "retry_timeout_seconds": RETRY_TIMEOUT_SECONDS,
                "hedge_after_seconds": HEDGE_AFTER_SECONDS,
                "unhedged_latency_ms": [
                    round(s * 1000, 2) for s in latencies["unhedged"]
                ],
                "hedged_latency_ms": [
                    round(s * 1000, 2) for s in latencies["hedged"]
                ],
                "unhedged_p99_ms": round(unhedged_p99, 2),
                "hedged_p99_ms": round(hedged_p99, 2),
                "host": host_info(),
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    if not QUICK:
        assert respawn_median < 150.0, (
            f"median respawn-to-healthy {respawn_median:.1f}ms exceeds "
            "the 150ms re-attach target: the respawn path is probably "
            "rebuilding state instead of re-attaching"
        )
        assert hedged_p99 < unhedged_p99, (
            f"hedging ({hedged_p99:.1f}ms) did not beat timeout-retry "
            f"({unhedged_p99:.1f}ms) under a frozen shard"
        )
