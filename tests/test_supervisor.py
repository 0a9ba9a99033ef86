"""Tests for the self-healing shard fabric (repro.shard.supervisor).

The contract under test: with supervision on, worker death is an
*operational* event, not a *correctness* event.  Queries in flight when
a worker dies are redispatched onto its respawned replacement (or
degrade with a structured reason — never hang), the per-shard circuit
breaker walks healthy -> open-circuit -> half-open -> healthy, a
crash-looping shard parks with its last error instead of burning CPU
forever, and a recovered answer is bit-identical to a fault-free run.

The probes query with ``method="lb+"``: it scatters to the shards, is
deterministic, and always contains the whole-graph ``lb`` answer.  Each
fault test also checks its ``lb`` counterpart — ``lb`` is answered by
the gateway's whole-graph pass alone, so under the same fault it stays
exact and is not degraded.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro import RQTreeEngine
from repro.errors import ShardUnavailableError
from repro.graph.generators import uncertain_gnp
from repro.resilience import FaultPlan
from repro.service.metrics import MetricsRegistry, set_registry
from repro.shard import ShardedRQTreeEngine, SupervisorPolicy
from repro.shard.supervisor import (
    SHARD_HEALTHY,
    SHARD_PARKED,
)

#: Tight intervals so breaker transitions happen at test speed.
FAST = SupervisorPolicy(
    ping_interval_seconds=0.02,
    ping_timeout_seconds=2.0,
    backoff_base_seconds=0.01,
    backoff_max_seconds=0.05,
)


@pytest.fixture()
def fresh_registry():
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def wait_until(predicate, timeout=30.0, interval=0.01, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


def all_healthy(engine):
    return all(
        s["state"] == SHARD_HEALTHY for s in engine.shard_states().values()
    )


def fingerprint(result):
    return (
        tuple(sorted(result.nodes)),
        tuple(sorted(result.statuses.items())),
        result.worlds_used,
        result.method,
        result.eta,
        tuple(result.sources),
    )


# ----------------------------------------------------------------------
# Inline mode: the state machine, deterministically provoked
# ----------------------------------------------------------------------
class TestInlineSupervision:
    @pytest.fixture()
    def graph(self):
        return uncertain_gnp(120, 0.04, seed=5)

    @pytest.fixture()
    def plain(self, graph):
        return RQTreeEngine.build(graph, seed=3)

    @pytest.fixture()
    def supervised(self, graph):
        with ShardedRQTreeEngine.build(
            graph, shards=2, seed=3, mode="inline",
            supervise=True, supervisor_policy=FAST,
        ) as engine:
            yield engine

    def test_supervised_answers_match_unsupervised(
        self, graph, plain, supervised
    ):
        assert supervised.supervisor is not None
        with ShardedRQTreeEngine.build(
            graph, shards=2, seed=3, mode="inline"
        ) as unsupervised:
            for sources, eta in (([0], 0.3), ([5, 60], 0.5), ([17], 0.7)):
                expect = set(
                    plain.query(sources, eta=eta, method="lb").nodes
                )
                got = supervised.query(sources, eta=eta, method="lb")
                assert set(got.nodes) == expect
                assert not got.degraded
                got = supervised.query(sources, eta=eta, method="lb+")
                assert not got.degraded
                assert got.shards_recovered == 0
                assert fingerprint(got) == fingerprint(
                    unsupervised.query(sources, eta=eta, method="lb+")
                )
        states = supervised.shard_states()
        assert set(states) == {0, 1}
        for state in states.values():
            assert state["state"] == SHARD_HEALTHY
            assert state["reason"] is None

    def test_unsupervised_states_report_liveness(self, graph):
        with ShardedRQTreeEngine.build(
            graph, shards=2, seed=3, mode="inline"
        ) as engine:
            assert engine.supervisor is None
            states = engine.shard_states()
            assert set(states) == {0, 1}
            for state in states.values():
                assert state["state"] == SHARD_HEALTHY

    def test_killed_client_recovers_in_flight_query(
        self, plain, supervised
    ):
        expected = fingerprint(supervised.query(0, eta=0.4, method="lb+"))
        victim = supervised.plan.owner(0)
        supervised.supervisor.client(victim).close()
        result = supervised.query(0, eta=0.4, method="lb+")
        # The in-flight sub-query was redispatched onto the respawned
        # worker: answered, not degraded, and marked as recovered.
        assert not result.degraded, result.degraded_reason
        assert result.shards_recovered >= 1
        assert fingerprint(result) == expected
        lb = set(plain.query(0, eta=0.4, method="lb").nodes)
        assert lb <= set(result.nodes)
        # lb counterpart: exact, not degraded, nothing to recover.
        supervised.supervisor.client(victim).close()
        answer = supervised.query(0, eta=0.4, method="lb")
        assert not answer.degraded
        assert answer.shards_recovered == 0
        assert set(answer.nodes) == lb
        wait_until(
            lambda: supervised.shard_states()[victim]["state"]
            == SHARD_HEALTHY
            and supervised.shard_states()[victim]["respawns"] >= 1,
            message="respawned shard back to healthy",
        )

    def test_crash_loop_parks_with_reason(
        self, graph, plain, fresh_registry
    ):
        policy = SupervisorPolicy(
            ping_interval_seconds=0.02,
            backoff_base_seconds=0.005,
            backoff_max_seconds=0.01,
            max_respawns=2,
            crash_window_seconds=60.0,
        )
        with ShardedRQTreeEngine.build(
            graph, shards=2, seed=3, mode="inline",
            supervise=True, supervisor_policy=policy,
        ) as engine:
            victim = engine.plan.owner(0)
            with FaultPlan({"supervisor.respawn": "always"}):
                engine.supervisor.client(victim).close()
                wait_until(
                    lambda: engine.shard_states()[victim]["state"]
                    == SHARD_PARKED,
                    message="crash-looping shard to park",
                )
            state = engine.shard_states()[victim]
            assert "crash-loop budget exhausted" in state["reason"]
            # Parked shards fail fast at submit with a structured reason
            # that survives into the degraded answer...
            with pytest.raises(ShardUnavailableError, match="parked"):
                engine.supervisor.submit(victim, {"sources": [0]})
            expect = set(plain.query(0, eta=0.4, method="lb").nodes)
            result = engine.query(0, eta=0.4, method="lb+")
            assert result.degraded
            assert "parked" in result.degraded_reason
            # ...while refinement keeps the whole-graph lb answer...
            assert expect <= set(result.nodes)
            # ...and lb itself, which asks no shard, stays exact.
            lb = engine.query(0, eta=0.4, method="lb")
            assert not lb.degraded
            assert set(lb.nodes) == expect
            snapshot = fresh_registry.snapshot()
            assert snapshot["counters"]["shard.supervisor.parked"] >= 1
            # A park is terminal: no further respawn attempts burn CPU.
            respawns = snapshot["counters"]["shard.supervisor.respawns"]
            time.sleep(0.1)
            assert (
                fresh_registry.snapshot()["counters"][
                    "shard.supervisor.respawns"
                ]
                == respawns
            )

    def test_failed_probe_backs_off_then_recovers(
        self, graph, fresh_registry
    ):
        with ShardedRQTreeEngine.build(
            graph, shards=2, seed=3, mode="inline",
            supervise=True, supervisor_policy=FAST,
        ) as engine:
            victim = engine.plan.owner(0)
            with FaultPlan({"supervisor.probe": 1}):
                engine.supervisor.client(victim).close()
                wait_until(
                    lambda: engine.shard_states()[victim]["state"]
                    == SHARD_HEALTHY
                    and engine.shard_states()[victim]["respawns"] >= 1,
                    message="recovery after one failed probe",
                )
            counters = fresh_registry.snapshot()["counters"]
            assert counters["shard.supervisor.respawn_failures"] >= 1
            assert counters["shard.supervisor.recoveries"] >= 1

    def test_stale_failure_report_keeps_the_replacement(self, supervised):
        # The monitor can respawn a dead worker before the gateway's
        # own wait notices the death; that late report names the dead
        # client and must not discard the healthy replacement.
        victim = supervised.plan.owner(0)
        dead = supervised.supervisor.client(victim)
        dead.close()
        wait_until(
            lambda: supervised.supervisor.client(victim) is not dead
            and supervised.shard_states()[victim]["state"] == SHARD_HEALTHY,
            message="respawned shard back to healthy",
        )
        replacement = supervised.supervisor.client(victim)
        supervised.supervisor.report_failure(victim, "late", client=dead)
        assert supervised.supervisor.client(victim) is replacement
        state = supervised.shard_states()[victim]
        assert state["state"] == SHARD_HEALTHY
        assert state["respawns"] == 1

    def test_application_errors_do_not_cycle_workers(self, supervised):
        # A malformed request is the *request's* fault: the worker
        # answered, so the breaker must not trip (cycling a healthy
        # worker over a bad request would amplify a client bug into an
        # availability incident).
        victim = 0
        dispatch = supervised.supervisor.submit(
            victim, {"sources": [0]}  # missing eta
        )
        with pytest.raises(ShardUnavailableError):
            supervised.supervisor.wait(dispatch)
        assert supervised.shard_states()[victim]["state"] == SHARD_HEALTHY
        assert supervised.shard_states()[victim]["respawns"] == 0

    def test_hedge_delay_derives_from_observed_latency(self, supervised):
        assert supervised.supervisor.hedge_delay(0) is None  # no samples
        for _ in range(10):
            supervised.query(0, eta=0.4, method="lb+")
        delay = supervised.supervisor.hedge_delay(
            supervised.plan.owner(0)
        )
        assert delay is not None
        assert 0.01 <= delay <= 1.0


# ----------------------------------------------------------------------
# Process mode: real workers, real SIGKILL
# ----------------------------------------------------------------------
class TestProcessSupervision:
    @pytest.mark.parametrize("transport", ["shm", "pickle"])
    def test_sigkill_mid_query_completes(self, transport):
        graph = uncertain_gnp(120, 0.04, seed=5)
        plain = RQTreeEngine.build(graph, seed=3)
        with ShardedRQTreeEngine.build(
            graph, shards=2, seed=3, mode="process",
            transport=transport,
            supervise=True, supervisor_policy=FAST,
        ) as engine:
            expected = fingerprint(engine.query(0, eta=0.4, method="lb+"))
            victim = engine.plan.owner(0)
            pid = engine.supervisor.client(victim)._process.pid
            # Freeze the victim so the sub-query is guaranteed to still
            # be in flight when the SIGKILL lands.
            os.kill(pid, signal.SIGSTOP)
            outcome = {}

            def run():
                outcome["result"] = engine.query(0, eta=0.4, method="lb+")

            thread = threading.Thread(target=run)
            thread.start()
            time.sleep(0.2)  # let the scatter reach the frozen worker
            os.kill(pid, signal.SIGKILL)
            thread.join(timeout=120.0)
            assert not thread.is_alive(), "query hung after worker SIGKILL"
            result = outcome["result"]
            # Redispatched (then equal to the fault-free answer) or
            # degraded-with-reason — and it keeps the whole-graph lb
            # answer either way, which refinement certifies.
            lb = set(plain.query(0, eta=0.4, method="lb").nodes)
            if result.degraded:
                assert result.degraded_reason
            else:
                assert result.shards_recovered >= 1
                assert fingerprint(result) == expected
            assert lb <= set(result.nodes)
            # lb counterpart: the killed worker is never asked.
            answer = engine.query(0, eta=0.4, method="lb")
            assert not answer.degraded
            assert set(answer.nodes) == lb
            wait_until(
                lambda: all_healthy(engine),
                message="killed worker back to healthy",
            )

    def test_fault_storm_heals_and_stays_bit_identical(self):
        graph = uncertain_gnp(150, 0.04, seed=9)
        schedule = [
            ([node], eta)
            for node in (0, 31, 77, 104, 149)
            for eta in (0.25, 0.5)
        ]
        queries = [schedule[i % len(schedule)] for i in range(200)]

        def shm_segments():
            try:
                return {
                    name for name in os.listdir("/dev/shm")
                    if name.startswith("psm_")
                }
            except FileNotFoundError:  # pragma: no cover - non-Linux
                return set()

        before = shm_segments()
        # Fault-free reference run: same engine shape, no kills.
        with ShardedRQTreeEngine.build(
            graph, shards=3, seed=4, mode="process",
            supervise=True, supervisor_policy=FAST,
        ) as engine:
            expected = [
                fingerprint(engine.query(s, eta=eta, method="lb+"))
                for s, eta in queries
            ]
            expected_lb = {
                (tuple(s), eta): set(engine.query(s, eta=eta).nodes)
                for s, eta in schedule
            }

        kills = {shard_id: 0 for shard_id in range(3)}
        with ShardedRQTreeEngine.build(
            graph, shards=3, seed=4, mode="process",
            supervise=True, supervisor_policy=FAST,
        ) as engine:
            for index, (sources, eta) in enumerate(queries):
                if index % 20 == 10:
                    target = (index // 20) % 3
                    client = engine.supervisor.client(target)
                    if client._process.is_alive():
                        os.kill(client._process.pid, signal.SIGKILL)
                        kills[target] += 1
                result = engine.query(sources, eta=eta, method="lb+")
                lb = expected_lb[(tuple(sources), eta)]
                # The answer always keeps the whole-graph lb answer
                # (refinement certifies it); the full fingerprint —
                # including the pool's rejection statuses — matches
                # whenever the supervisor recovered the shard rather
                # than failing fast on an open breaker.
                assert lb <= set(result.nodes), (
                    f"query {index} lost lb nodes under faults"
                )
                if not result.degraded:
                    assert fingerprint(result) == expected[index], (
                        f"query {index} diverged under faults"
                    )
                # lb counterpart: bit-identical and never degraded.
                answer = engine.query(sources, eta=eta, method="lb")
                assert not answer.degraded
                assert set(answer.nodes) == lb, (
                    f"query {index} lb nodes diverged under faults"
                )
            assert all(count >= 1 for count in kills.values()), kills
            wait_until(
                lambda: all_healthy(engine),
                message="all shards healthy after the storm",
            )
            states = engine.shard_states()
            assert sum(s["respawns"] for s in states.values()) >= sum(
                kills.values()
            )
        leaked = shm_segments() - before
        assert not leaked, f"leaked shm segments: {leaked}"
