#!/usr/bin/env python
"""Chaos harness for the self-healing shard fabric.

Runs two storm phases against a supervised ``ShardedRQTreeEngine`` and
exits nonzero on any hang, wrong answer, or shared-memory leak — the
three failure modes a recovery layer can hide:

1. **Process kill storm.**  A process-mode engine (shm transport)
   answers a query stream while round-robin SIGKILLs take out shard
   workers mid-flight.  Every ``lb`` answer must equal the plain
   single-engine answer node-for-node (exactness through failures is
   the fabric's core contract), the fabric must end all-healthy, and
   no segment the run published may be left in ``/dev/shm``.

2. **Inline FaultPlan storm.**  An inline engine runs the same stream
   under a seeded fault schedule that fails respawns, half-open
   probes, redispatches, and hedge promotions inside the supervisor
   itself — the recovery machinery recovering from its own failures.

3. **Epoch storm** (``--updates``).  A live engine
   (``repro.live.LiveShardedEngine``, process + shm, supervised)
   absorbs a seeded update stream while queries, round-robin SIGKILLs,
   and a mid-stream rebalance all race it.  Every non-degraded ``lb``
   answer must equal the cold-rebuild answer *for the epoch the result
   reports* (no drift, no cross-epoch leakage), the fabric must end
   healthy, and no epoch's shm segments may outlive it.

A watchdog alarm bounds the whole run: a hang is an exit, not a stuck
CI job.

Exit codes: 0 ok, 1 wrong answer, 2 shm leak, 3 hang / unhealthy end
state.
"""

from __future__ import annotations

import os
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

WATCHDOG_SECONDS = 540

KILL_STORM_QUERIES = 60
KILL_EVERY = 6
FAULT_STORM_QUERIES = 40
SHARDS = 3
ETA_SCHEDULE = (0.2, 0.3, 0.4, 0.5)

EPOCH_STORM_BATCHES = 6
EPOCH_BATCH_SIZE = 25
EPOCH_STORM_QUERIES_PER_BATCH = 8
EPOCH_STORM_ETA = 0.35


def _alarm(signum, frame):  # pragma: no cover - only fires on a hang
    print("CHAOS FAIL: watchdog expired — the fabric hung", file=sys.stderr)
    os._exit(3)


def _record_published_segments():
    """Names of the shared-memory segments this run publishes.

    Every segment is created by ``repro.shard.shm.registry.publish`` in
    this (the gateway's) process, so wrapping it records exactly the
    run's own segments; ``/dev/shm`` entries of other processes on the
    host are never looked at.
    """
    from repro.shard import shm

    published = []
    publish = shm.registry.publish

    def recording_publish(arrays):
        meta = publish(arrays)
        published.append(meta["name"])
        return meta

    shm.registry.publish = recording_publish
    return published


def _leaked_segments(published):
    """The run's segments still present in ``/dev/shm`` (``None``: no
    ``/dev/shm`` to look in)."""
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():
        return None
    return sorted(name for name in set(published) if (shm_dir / name).exists())


def _expected_answers(graph, seed):
    from repro.core.engine import RQTreeEngine

    with_plain = RQTreeEngine.build(graph, seed=seed)
    expected = []
    for index in range(max(KILL_STORM_QUERIES, FAULT_STORM_QUERIES)):
        source = index % graph.num_nodes
        eta = ETA_SCHEDULE[index % len(ETA_SCHEDULE)]
        result = with_plain.query(source, eta=eta, method="lb")
        expected.append(tuple(sorted(result.nodes)))
    return expected


def _check_answer(phase, index, result, expected):
    got = tuple(sorted(result.nodes))
    if got != expected:
        print(
            f"CHAOS FAIL [{phase}] query {index}: answer mismatch "
            f"(degraded={result.degraded!r}, "
            f"reason={result.degraded_reason!r})",
            file=sys.stderr,
        )
        sys.exit(1)


def _wait_all_healthy(engine, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        states = engine.shard_states()
        if all(s["state"] == "healthy" for s in states.values()):
            return
        time.sleep(0.02)
    print(
        f"CHAOS FAIL: fabric did not return to healthy: "
        f"{engine.shard_states()!r}",
        file=sys.stderr,
    )
    sys.exit(3)


def kill_storm(graph, expected):
    from repro.shard import ShardedRQTreeEngine, SupervisorPolicy

    policy = SupervisorPolicy(
        ping_interval_seconds=0.02, backoff_base_seconds=0.01,
    )
    kills = 0
    with ShardedRQTreeEngine.build(
        graph, shards=SHARDS, seed=3, mode="process", transport="shm",
        supervise=True, supervisor_policy=policy,
    ) as engine:
        for index in range(KILL_STORM_QUERIES):
            if index % KILL_EVERY == KILL_EVERY // 2:
                victim = (index // KILL_EVERY) % SHARDS
                pid = engine.supervisor.client(victim)._process.pid
                try:
                    os.kill(pid, signal.SIGKILL)
                    kills += 1
                except ProcessLookupError:
                    pass
            source = index % graph.num_nodes
            eta = ETA_SCHEDULE[index % len(ETA_SCHEDULE)]
            result = engine.query(source, eta=eta, method="lb")
            _check_answer("kill-storm", index, result, expected[index])
        _wait_all_healthy(engine)
        respawns = sum(
            s["respawns"] for s in engine.shard_states().values()
        )
    print(f"kill storm: {KILL_STORM_QUERIES} queries, {kills} SIGKILLs, "
          f"{respawns} respawns, all answers exact, fabric healthy")


def fault_storm(graph, expected):
    from repro.resilience import FaultPlan
    from repro.shard import ShardedRQTreeEngine, SupervisorPolicy

    policy = SupervisorPolicy(
        ping_interval_seconds=0.02, backoff_base_seconds=0.01,
        max_respawns=10_000,  # the storm must not park anyone
    )
    points = (
        "supervisor.respawn", "supervisor.probe",
        "supervisor.redispatch", "supervisor.hedge",
        "shard.handle",
    )
    with ShardedRQTreeEngine.build(
        graph, shards=SHARDS, seed=3, mode="inline",
        supervise=True, supervisor_policy=policy,
    ) as engine:
        with FaultPlan.seeded(17, points, probability=0.3) as plan:
            for index in range(FAULT_STORM_QUERIES):
                if index % 5 == 2:
                    # Kill an inline worker so the supervisor actually
                    # has to respawn/redispatch under the fault plan.
                    victim = (index // 5) % SHARDS
                    engine.supervisor.client(victim).close()
                source = index % graph.num_nodes
                eta = ETA_SCHEDULE[index % len(ETA_SCHEDULE)]
                result = engine.query(source, eta=eta, method="lb")
                _check_answer("fault-storm", index, result, expected[index])
            hits = {name: plan.hits(name) for name in points}
        _wait_all_healthy(engine)
    exercised = sum(hits.values())
    if exercised == 0:
        print(
            "CHAOS FAIL: fault storm exercised no supervisor injection "
            "points — the storm is not reaching the recovery machinery",
            file=sys.stderr,
        )
        sys.exit(1)
    print(f"fault storm: {FAULT_STORM_QUERIES} queries under seeded "
          f"supervisor faults (hits: {hits}), all answers exact")


def _epoch_update_stream(graph, num_batches, batch_size, seed=13):
    import random

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
                p = round(rng.uniform(0.2, 0.9), 3)
                ops.append(("set", u, v, p))
                mirror[(u, v)] = p
            elif roll < 0.8:
                u, v = rng.randrange(n), rng.randrange(n)
                if u == v or (u, v) in mirror:
                    continue
                p = round(rng.uniform(0.2, 0.9), 3)
                ops.append(("set", u, v, p))
                mirror[(u, v)] = p
            elif mirror:
                u, v = rng.choice(sorted(mirror))
                ops.append(("delete", u, v))
                del mirror[(u, v)]
        batches.append(ops)
    return batches


def epoch_storm(graph):
    """Updates + SIGKILLs + a mid-stream rebalance, all at once."""
    import threading

    from repro.core.engine import RQTreeEngine
    from repro.live import LiveShardedEngine
    from repro.live.updates import apply_to_graph, normalize_updates
    from repro.shard import SupervisorPolicy

    batches = _epoch_update_stream(
        graph, EPOCH_STORM_BATCHES, EPOCH_BATCH_SIZE
    )
    # Per-epoch cold-rebuild references for every query the storm runs.
    sources = [
        (index * 11) % graph.num_nodes
        for index in range(EPOCH_STORM_QUERIES_PER_BATCH)
    ]
    mirror = graph.copy()
    reference = {}
    for epoch in range(EPOCH_STORM_BATCHES + 1):
        if epoch > 0:
            apply_to_graph(mirror, normalize_updates(batches[epoch - 1]))
        cold = RQTreeEngine.build(mirror, seed=3)
        reference[epoch] = {
            source: tuple(sorted(
                cold.query(source, eta=EPOCH_STORM_ETA, method="lb").nodes
            ))
            for source in sources
        }

    policy = SupervisorPolicy(
        ping_interval_seconds=0.02, backoff_base_seconds=0.01,
    )
    kills = 0
    stop = threading.Event()
    failures = []
    checked = [0]

    with LiveShardedEngine.build(
        graph.copy(), shards=2, seed=3, mode="process", transport="shm",
        supervise=True, supervisor_policy=policy,
    ) as engine:
        def hammer():
            cursor = 0
            while not stop.is_set():
                source = sources[cursor % len(sources)]
                cursor += 1
                try:
                    result = engine.query(
                        source, eta=EPOCH_STORM_ETA, method="lb"
                    )
                except Exception as error:  # noqa: BLE001
                    failures.append(f"query raised: {error!r}")
                    continue
                if result.degraded:
                    continue  # a mid-kill degrade is allowed; drift is not
                want = reference[result.epoch][source]
                if tuple(sorted(result.nodes)) != want:
                    failures.append(
                        f"epoch {result.epoch} source {source}: answer "
                        f"drifted from that epoch's cold rebuild"
                    )
                checked[0] += 1

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for index, batch in enumerate(batches):
                if index % 2 == 1:
                    victim = index % 2
                    try:
                        pid = engine.supervisor.client(victim)._process.pid
                        os.kill(pid, signal.SIGKILL)
                        kills += 1
                    except (ProcessLookupError, AttributeError):
                        pass
                engine.apply(batch)
                if index == EPOCH_STORM_BATCHES // 2:
                    engine.rebalance(4)
                time.sleep(0.05)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
        if failures:
            for failure in failures[:5]:
                print(f"CHAOS FAIL [epoch-storm] {failure}",
                      file=sys.stderr)
            sys.exit(1)
        if checked[0] == 0:
            print("CHAOS FAIL [epoch-storm]: no query was ever checked",
                  file=sys.stderr)
            sys.exit(3)
        _wait_all_healthy(engine)
        held = engine.store.held_epochs()
        if held != [engine.epoch]:
            print(
                f"CHAOS FAIL [epoch-storm]: superseded epochs never "
                f"drained (held: {held}, current: {engine.epoch})",
                file=sys.stderr,
            )
            sys.exit(2)
    print(
        f"epoch storm: {EPOCH_STORM_BATCHES} update batches, {kills} "
        f"SIGKILLs, 1 rebalance, {checked[0]} answers checked against "
        f"their own epoch's cold rebuild, fabric healthy"
    )


def main() -> int:
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(WATCHDOG_SECONDS)

    from repro.graph.generators import uncertain_gnp

    with_updates = "--updates" in sys.argv[1:]
    graph = uncertain_gnp(150, 0.04, seed=9)
    expected = _expected_answers(graph, seed=3)

    published = _record_published_segments()
    kill_storm(graph, expected)
    fault_storm(graph, expected)
    if with_updates:
        epoch_storm(graph)

    if not published:
        print("CHAOS FAIL: the shm-transport storms published no segment, "
              "so the leak census checked nothing", file=sys.stderr)
        return 2
    leaked = _leaked_segments(published)
    if leaked:
        print(f"CHAOS FAIL: shared-memory leak: {leaked}", file=sys.stderr)
        return 2

    signal.alarm(0)
    print("chaos: all phases passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
