"""The live update plane: ``repro.live``.

The contract under test (see ``ARCHITECTURE.md`` "Update plane &
epochs"):

* **Parity** — after any seeded update stream, ``lb`` answers through a
  live engine (single or sharded, any shard count) are bit-identical to
  a cold rebuild of the mutated graph.  Updates may erode the index's
  pruning power, never its answers.
* **Atomicity** — a batch with any invalid op is rejected whole, before
  an epoch is assigned; no op from it reaches the graph.
* **Isolation** — a query runs against the epoch it was admitted on,
  start to finish; concurrent updates and rebalances never fail a
  query and never leak a cross-epoch answer.
* **Hygiene** — superseded epochs free their resources once their last
  lease drains: zero ``/dev/shm`` CSR-segment residue across epochs,
  even with a worker SIGKILLed mid-stream.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core.engine import RQTreeEngine
from repro.core.maintenance import DynamicRQTreeEngine
from repro.errors import InvalidProbabilityError
from repro.graph.generators import nethept_like, uncertain_gnp
from repro.live import (
    ArcUpdate,
    EpochStore,
    LiveRQTreeEngine,
    LiveShardedEngine,
    LoadWatermarks,
    UpdateLog,
)
from repro.live.updates import apply_to_graph as _apply_normalized
from repro.live.updates import normalize_updates


def apply_to_graph(graph, ops):
    """Test-side mirror apply: accepts raw tuples/dicts like the wire."""
    return _apply_normalized(graph, normalize_updates(ops))
from repro.resilience.budget import QueryBudget
from repro.service.metrics import MetricsRegistry, set_registry
from repro.shard import shm

SEED = 20140328  # EDBT 2014


@pytest.fixture()
def fresh_registry():
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def _stream(graph, num_ops, seed=SEED):
    """A seeded update stream that stays meaningful as it runs.

    Tracks the evolving arc set on a mirror so deletes hit arcs that
    exist and inserts target arcs that don't — a stream of no-ops would
    test nothing.
    """
    import random

    rng = random.Random(seed)
    mirror = {(u, v): p for u, v, p in graph.arcs()}
    n = graph.num_nodes
    ops = []
    while len(ops) < num_ops:
        roll = rng.random()
        if roll < 0.4 and mirror:
            u, v = rng.choice(sorted(mirror))
            p = round(rng.uniform(0.2, 0.95), 3)
            ops.append(("set", u, v, p))
            mirror[(u, v)] = p
        elif roll < 0.7:
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v or (u, v) in mirror:
                continue
            p = round(rng.uniform(0.2, 0.95), 3)
            ops.append(("set", u, v, p))
            mirror[(u, v)] = p
        elif mirror:
            u, v = rng.choice(sorted(mirror))
            ops.append(("delete", u, v))
            del mirror[(u, v)]
    return ops


def _batches(ops, size):
    return [ops[i:i + size] for i in range(0, len(ops), size)]


def _lb_answer(graph, sources, eta, seed=3):
    """The cold-rebuild reference: fresh index over the mutated graph."""
    return RQTreeEngine.build(graph, seed=seed).query(
        sources, eta, method="lb"
    ).nodes


# ----------------------------------------------------------------------
# Units: ArcUpdate / UpdateLog
# ----------------------------------------------------------------------
class TestArcUpdate:
    def test_validates_op_and_probability(self):
        with pytest.raises(ValueError):
            ArcUpdate("toggle", 0, 1, 0.5)
        with pytest.raises(InvalidProbabilityError):
            ArcUpdate("set", 0, 1, 1.5)
        with pytest.raises(ValueError):
            ArcUpdate("set", 0, 1, None)

    def test_delete_normalizes_probability(self):
        assert ArcUpdate("delete", 0, 1, 0.7).p is None

    def test_from_object_accepts_dicts_and_tuples(self):
        from_dict = ArcUpdate.from_object(
            {"op": "set", "u": 1, "v": 2, "p": 0.5}
        )
        from_tuple = ArcUpdate.from_object(("set", 1, 2, 0.5))
        assert from_dict == from_tuple
        assert ArcUpdate.from_object(("delete", 3, 4)).op == "delete"

    def test_ids_must_be_integers(self):
        # Coercing would rewrite another arc: int(0.9) and int(True)
        # name nodes 0 and 1.
        for u, v in ((0.9, 1), (0, "1"), (True, 2), (0, False)):
            with pytest.raises(TypeError):
                ArcUpdate("set", u, v, 0.25)
        # numpy integers from in-process callers still pass.
        update = ArcUpdate("set", np.int64(3), np.int32(4), 0.25)
        assert (update.u, update.v) == (3, 4)
        assert type(update.u) is int and type(update.v) is int

    def test_missing_endpoint_is_a_value_error(self):
        for obj in (
            {"op": "delete", "u": 0},
            {"op": "set", "v": 1, "p": 0.5},
            ("delete", 0),
            ("set", 0, 1, 0.5, "extra"),
        ):
            with pytest.raises(ValueError):
                ArcUpdate.from_object(obj)

    def test_insert_applies_exactly_like_set(self):
        base = uncertain_gnp(6, 0.3, seed=1)
        via_insert, via_set = base.copy(), base.copy()
        apply_to_graph(via_insert, [("insert", 0, 5, 0.5)])
        apply_to_graph(via_set, [("set", 0, 5, 0.5)])
        assert sorted(via_insert.arcs()) == sorted(via_set.arcs())


class TestUpdateLog:
    def test_epochs_are_monotonic_from_one(self):
        log = UpdateLog()
        assert log.latest_epoch == 0
        epoch1, _ = log.append([("set", 0, 1, 0.5)])
        epoch2, _ = log.append([("delete", 0, 1)])
        assert (epoch1, epoch2) == (1, 2)
        assert log.latest_epoch == 2

    def test_rejection_is_atomic_and_pre_epoch(self):
        log = UpdateLog()
        log.append([("set", 0, 1, 0.5)])
        with pytest.raises(ValueError):
            log.append([("set", 1, 2, 0.9), ("set", 2, 3, 7.0)])
        # The bad batch consumed no epoch and left no trace.
        assert log.latest_epoch == 1
        assert len(log) == 1

    def test_since_returns_later_batches(self):
        log = UpdateLog()
        log.append([("set", 0, 1, 0.5)])
        log.append([("set", 1, 2, 0.5)])
        log.append([("delete", 0, 1)])
        assert [epoch for epoch, _ in log.since(1)] == [2, 3]


# ----------------------------------------------------------------------
# Units: EpochStore
# ----------------------------------------------------------------------
class TestEpochStore:
    def _graph_at(self, epoch):
        graph = uncertain_gnp(10, 0.3, seed=1)
        graph.set_epoch(epoch)
        return graph

    def test_publish_supersedes_and_frees_unleased(self, fresh_registry):
        store = EpochStore()
        store.publish(self._graph_at(0))
        store.publish(self._graph_at(1))
        assert store.held_epochs() == [1]
        assert store.current_epoch == 1
        assert fresh_registry.counter("live.epochs_freed").value == 1
        assert fresh_registry.gauge("live.epoch").value == 1

    def test_leased_epoch_survives_until_drain(self, fresh_registry):
        store = EpochStore()
        store.publish(self._graph_at(0))
        lease = store.lease()
        store.publish(self._graph_at(1))
        assert store.held_epochs() == [0, 1]  # pinned by the lease
        assert lease.epoch == 0
        lease.release()
        assert store.held_epochs() == [1]
        lease.release()  # idempotent
        assert store.held_epochs() == [1]

    def test_lease_targets_current_epoch(self):
        store = EpochStore()
        store.publish(self._graph_at(0))
        store.publish(self._graph_at(3))
        with store.lease() as lease:
            assert lease.epoch == 3
            assert lease.graph.epoch == 3

    def test_lease_of_missing_epoch_raises(self):
        store = EpochStore()
        with pytest.raises(KeyError):
            store.lease()
        store.publish(self._graph_at(0))
        with pytest.raises(KeyError):
            store.lease(epoch=5)

    def test_publish_rejects_stale_epochs(self):
        store = EpochStore()
        store.publish(self._graph_at(2))
        with pytest.raises(ValueError):
            store.publish(self._graph_at(2))
        with pytest.raises(ValueError):
            store.publish(self._graph_at(1))

    def test_close_frees_everything(self, fresh_registry):
        store = EpochStore()
        store.publish(self._graph_at(0))
        store.lease()  # even an unreleased lease cannot pin past close
        store.publish(self._graph_at(1))
        store.close()
        assert store.held_epochs() == []


# ----------------------------------------------------------------------
# Units: LoadWatermarks
# ----------------------------------------------------------------------
class TestLoadWatermarks:
    def test_validates_bounds(self):
        with pytest.raises(ValueError):
            LoadWatermarks(min_shards=0)
        with pytest.raises(ValueError):
            LoadWatermarks(min_shards=8, max_shards=4)
        with pytest.raises(ValueError):
            LoadWatermarks(max_nodes_per_shard=-1)

    def test_disabled_watermarks_never_trip(self):
        marks = LoadWatermarks()
        assert marks.proposed_shards([10**6], [10**6]) is None

    def test_node_watermark_doubles_shards(self):
        marks = LoadWatermarks(max_nodes_per_shard=100)
        assert marks.proposed_shards([150, 80], [0, 0]) == 4
        assert marks.proposed_shards([80, 80], [0, 0]) is None

    def test_queue_watermark_and_max_clamp(self):
        marks = LoadWatermarks(max_queue_depth=5, max_shards=3)
        assert marks.proposed_shards([10, 10], [9, 0]) == 3
        assert marks.proposed_shards([10, 10, 10], [9, 9, 9]) is None


# ----------------------------------------------------------------------
# Single-engine live path
# ----------------------------------------------------------------------
class TestLiveSingleEngine:
    def test_stream_parity_with_cold_rebuild(self):
        graph = uncertain_gnp(60, 0.08, seed=5)
        ops = _stream(graph.copy(), 200)
        live = LiveRQTreeEngine.build(graph, seed=3)
        mirror = graph.copy()
        with live:
            for batch in _batches(ops, 25):
                epoch = live.apply(batch)
                apply_to_graph(mirror, batch)
                got = live.query([0, 7], 0.4, method="lb")
                assert got.epoch == epoch == live.epoch
                assert got.nodes == _lb_answer(mirror, [0, 7], 0.4)

    def test_query_pins_admission_epoch(self):
        graph = uncertain_gnp(30, 0.15, seed=2)
        with LiveRQTreeEngine.build(graph, seed=3) as live:
            lease = live.store.lease()
            live.apply([("set", 0, 1, 0.9)])
            # The pre-update lease still reads the old world.
            assert lease.epoch == 0
            assert not lease.graph.has_arc(0, 1) or (
                lease.graph.probability(0, 1) != 0.9
            )
            lease.release()

    def test_apply_rejection_leaves_graph_untouched(self):
        graph = uncertain_gnp(30, 0.15, seed=2)
        with LiveRQTreeEngine.build(graph, seed=3) as live:
            before = sorted(live.graph.arcs())
            with pytest.raises(ValueError):
                live.apply([("set", 0, 1, 0.9), ("set", 1, 2, 9.0)])
            assert sorted(live.graph.arcs()) == before
            assert live.epoch == 0

    def test_maintainer_degrades_under_deadline_never_raises(self):
        """Satellite: incremental maintenance under a QueryBudget.

        A maintained engine that has absorbed damage must honour the
        budget contract exactly like a frozen one: an expired deadline
        produces a degraded answer, never an exception.
        """
        maintainer = DynamicRQTreeEngine(
            nethept_like(n=200, seed=9), seed=3
        )
        maintainer.apply(_stream(maintainer.graph.copy(), 80, seed=4))
        for deadline in (1e-9, 1e-6, 1e-4):
            result = maintainer.query(
                [0, 3], 0.3, method="mc", num_samples=400, seed=11,
                budget=QueryBudget(deadline_seconds=deadline),
            )
            assert result.worlds_used <= 400
            if result.degraded:
                assert result.degraded_reason
        # And with room to breathe the answer is not degraded.
        ok = maintainer.query(
            [0, 3], 0.3, method="lb",
            budget=QueryBudget(deadline_seconds=60.0),
        )
        assert not ok.degraded


# ----------------------------------------------------------------------
# Sharded live path: the acceptance criterion
# ----------------------------------------------------------------------
class TestLiveShardedParity:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_500_op_stream_is_bit_identical_to_cold_rebuild(self, shards):
        graph = uncertain_gnp(90, 0.06, seed=8)
        ops = _stream(graph.copy(), 500)
        mirror = graph.copy()
        checkpoints = {5, 11, 19}  # batch indices to audit (of 20)
        with LiveShardedEngine.build(
            graph, shards=shards, seed=7, mode="inline",
            transport="pickle",
        ) as live:
            for index, batch in enumerate(_batches(ops, 25)):
                live.apply(batch)
                apply_to_graph(mirror, batch)
                if index in checkpoints:
                    for sources in ([0], [3, 41]):
                        got = live.query(sources, 0.4, method="lb")
                        assert not got.degraded
                        assert got.nodes == _lb_answer(mirror, sources, 0.4)
            # Final state: every shard count agrees with the rebuild.
            got = live.query([0, 3, 41], 0.35, method="lb")
            assert got.epoch == 20
            assert got.nodes == _lb_answer(mirror, [0, 3, 41], 0.35)

    def test_lbplus_follows_parity(self):
        graph = uncertain_gnp(40, 0.12, seed=6)
        ops = _stream(graph.copy(), 60)
        mirror = graph.copy()
        with LiveShardedEngine.build(
            graph, shards=2, seed=7, mode="inline", transport="pickle",
        ) as live:
            for batch in _batches(ops, 20):
                live.apply(batch)
            apply_to_graph(mirror, ops)
            cold = RQTreeEngine.build(mirror, seed=3)
            got = live.query([1], 0.45, method="lb+")
            want = cold.query([1], 0.45, method="lb+")
            assert got.nodes == want.nodes

    def test_exact_follows_parity_within_its_caps(self):
        # Small enough that the exact estimator really enumerates
        # (beyond its caps it falls back to seeded MC over an
        # engine-shaped pool, which is a sampling method, not exact).
        graph = uncertain_gnp(12, 0.18, seed=6)
        ops = _stream(graph.copy(), 20)
        mirror = graph.copy()
        with LiveShardedEngine.build(
            graph, shards=2, seed=7, mode="inline", transport="pickle",
        ) as live:
            for batch in _batches(ops, 10):
                live.apply(batch)
            apply_to_graph(mirror, ops)
            cold = RQTreeEngine.build(mirror, seed=3)
            got = live.query([1], 0.45, method="exact")
            want = cold.query([1], 0.45, method="exact")
            assert got.nodes == want.nodes

    def test_mc_respects_sampling_bounds_after_stream(self):
        graph = uncertain_gnp(40, 0.12, seed=6)
        ops = _stream(graph.copy(), 60)
        mirror = graph.copy()
        with LiveShardedEngine.build(
            graph, shards=2, seed=7, mode="inline", transport="pickle",
            mc_refine_floor=0.0,
        ) as live:
            for batch in _batches(ops, 20):
                live.apply(batch)
            apply_to_graph(mirror, ops)
            got = live.query([1], 0.45, method="mc", num_samples=600,
                             seed=17)
            want = RQTreeEngine.build(mirror, seed=3).query(
                [1], 0.45, method="mc", num_samples=600, seed=17
            )
            # At floor 0 the refinement pool is the whole graph, so the
            # same seeded worlds give the identical answer.
            assert got.nodes == want.nodes


# ----------------------------------------------------------------------
# Rebalancing
# ----------------------------------------------------------------------
class TestRebalance:
    def test_rebalance_preserves_parity(self, fresh_registry):
        graph = uncertain_gnp(60, 0.08, seed=5)
        ops = _stream(graph.copy(), 100)
        mirror = graph.copy()
        with LiveShardedEngine.build(
            graph, shards=2, seed=7, mode="inline", transport="pickle",
        ) as live:
            batches = _batches(ops, 25)
            for batch in batches[:2]:
                live.apply(batch)
                apply_to_graph(mirror, batch)
            live.rebalance(4)
            assert live.num_shards == 4
            for batch in batches[2:]:
                live.apply(batch)
                apply_to_graph(mirror, batch)
            got = live.query([0, 9], 0.4, method="lb")
            assert got.nodes == _lb_answer(mirror, [0, 9], 0.4)
            assert fresh_registry.counter("live.rebalances").value == 1

    def test_mid_stream_rebalance_zero_failed_zero_stale(self):
        """The acceptance criterion: queries racing a rebalance (and
        updates) neither fail nor observe a cross-epoch answer.

        ``lb`` is deterministic per graph, so "not stale" is checkable
        exactly: whatever epoch a result reports, its node set must be
        the cold-rebuild answer *for that epoch's graph*.
        """
        graph = uncertain_gnp(50, 0.1, seed=12)
        ops = _stream(graph.copy(), 120)
        batches = _batches(ops, 30)
        # Precompute the per-epoch reference answers.
        mirror = graph.copy()
        reference = {0: _lb_answer(mirror, [2], 0.4)}
        for epoch, batch in enumerate(batches, start=1):
            apply_to_graph(mirror, batch)
            reference[epoch] = _lb_answer(mirror, [2], 0.4)

        failures, observations = [], []
        stop = threading.Event()

        with LiveShardedEngine.build(
            graph, shards=2, seed=7, mode="inline", transport="pickle",
        ) as live:
            def hammer():
                while not stop.is_set():
                    try:
                        result = live.query([2], 0.4, method="lb")
                        observations.append((result.epoch, result.nodes))
                    except Exception as error:  # noqa: BLE001
                        failures.append(error)

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            try:
                for index, batch in enumerate(batches):
                    live.apply(batch)
                    if index == 1:
                        live.rebalance(4)
                    time.sleep(0.02)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30)

        assert not failures, failures[:3]
        assert observations, "hammer threads never completed a query"
        for epoch, nodes in observations:
            assert nodes == reference[epoch], (
                f"epoch {epoch} answer diverged from its own graph"
            )

    def test_maybe_rebalance_honours_watermarks(self):
        graph = uncertain_gnp(60, 0.08, seed=5)
        with LiveShardedEngine.build(
            graph, shards=2, seed=7, mode="inline", transport="pickle",
            watermarks=LoadWatermarks(max_nodes_per_shard=20,
                                      max_shards=4),
        ) as live:
            assert live.maybe_rebalance() == 4
            assert live.num_shards == 4
            # At the clamp: no further splits.
            assert live.maybe_rebalance() is None


# ----------------------------------------------------------------------
# Process workers + shared memory: segments drain with their epochs
# ----------------------------------------------------------------------
SHM_DIR = "/dev/shm"

needs_shm = pytest.mark.skipif(
    not (shm.shm_available() and os.path.isdir(SHM_DIR)),
    reason="POSIX shared memory not available",
)


def _csr_segments() -> set:
    # CPython SharedMemory names are psm_*; multiprocessing queue
    # semaphores (sem.mp-*) come and go with GC and are not ours.
    return {n for n in os.listdir(SHM_DIR) if n.startswith("psm_")}


@needs_shm
class TestProcessShmEpochs:
    def test_three_epoch_stream_leaks_nothing(self, fresh_registry):
        baseline = _csr_segments()
        graph = uncertain_gnp(80, 0.07, seed=10)
        ops = _stream(graph.copy(), 90)
        mirror = graph.copy()
        with LiveShardedEngine.build(
            graph, shards=2, seed=7, mode="process", transport="shm",
        ) as live:
            for batch in _batches(ops, 30):  # epochs 1..3
                live.apply(batch)
                apply_to_graph(mirror, batch)
                got = live.query([0, 5], 0.4, method="lb")
                assert not got.degraded
                assert got.nodes == _lb_answer(mirror, [0, 5], 0.4)
            assert live.epoch == 3
            # Superseded epochs drained; only the live topology's
            # segments (plus whatever predates this test) remain.
            held = live.store.held_epochs()
            assert held == [3]
            assert fresh_registry.counter("live.epochs_freed").value >= 3
        assert _csr_segments() <= baseline

    def test_sigkill_mid_stream_recovers_and_leaks_nothing(
        self, fresh_registry
    ):
        baseline = _csr_segments()
        graph = uncertain_gnp(80, 0.07, seed=10)
        ops = _stream(graph.copy(), 60)
        mirror = graph.copy()
        with LiveShardedEngine.build(
            graph, shards=2, seed=7, mode="process", transport="shm",
            supervise=True,
        ) as live:
            batches = _batches(ops, 30)
            live.apply(batches[0])
            apply_to_graph(mirror, batches[0])
            # Kill a worker, then stream the next batch into the hole:
            # the slice stream tolerates the corpse (its respawn payload
            # already carries the new epoch).
            victim = live.supervisor.client(0)
            os.kill(victim._process.pid, signal.SIGKILL)
            victim._process.join(timeout=10)
            live.apply(batches[1])
            apply_to_graph(mirror, batches[1])
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                got = live.query([0, 5], 0.4, method="lb")
                if not got.degraded:
                    break
                time.sleep(0.2)
            assert not got.degraded, "supervisor never healed the shard"
            assert got.nodes == _lb_answer(mirror, [0, 5], 0.4)
        assert _csr_segments() <= baseline


# ----------------------------------------------------------------------
# Service integration: epoch-scoped cache invalidation
# ----------------------------------------------------------------------
class TestServiceLive:
    def test_apply_updates_bumps_epoch_and_invalidates_cache(self):
        from repro.service.server import ReliabilityService

        graph = uncertain_gnp(40, 0.12, seed=6)
        engine = RQTreeEngine.build(graph.copy(), seed=3)
        with ReliabilityService(engine, workers=2, live=True) as service:
            first = service.query([0], 0.4, method="lb")
            again = service.query([0], 0.4, method="lb")
            assert again.nodes == first.nodes  # cache or not, stable
            ops = _stream(graph.copy(), 40)
            outcome = service.apply_updates(ops)
            assert outcome == {"epoch": 1, "ops": 40}
            mirror = graph.copy()
            apply_to_graph(mirror, ops)
            after = service.query([0], 0.4, method="lb")
            assert after.epoch == 1
            # The post-update answer matches a cold rebuild — a stale
            # cache hit from epoch 0 would not.
            assert after.nodes == _lb_answer(mirror, [0], 0.4)

    def test_frozen_service_refuses_updates(self):
        from repro.service.server import ReliabilityService

        engine = RQTreeEngine.build(uncertain_gnp(20, 0.2, seed=1), seed=3)
        with ReliabilityService(engine, workers=1) as service:
            with pytest.raises(ValueError, match="live=True"):
                service.apply_updates([("set", 0, 1, 0.5)])
