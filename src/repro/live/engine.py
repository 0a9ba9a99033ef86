"""Live engines: the write path over the single and sharded read paths.

:class:`LiveRQTreeEngine` pairs one
:class:`~repro.core.engine.RQTreeEngine` (the master graph and the
index built at start-up) with an :class:`~repro.live.epochs.EpochStore`
(query isolation): every admitted batch bumps the epoch, publishes a
copy-on-write snapshot, and queries always run against the snapshot of
the epoch they were admitted on.

Both engines publish an epoch as a delta of the last
(:meth:`EpochStore.publish_delta`): the snapshot shares the previous
one's adjacency rows except those the batch touched, and a CSR the
previous epoch had packed is carried forward row by row, so a batch
costs work in proportion to the rows it touches, not to the graph.

:class:`LiveShardedEngine` extends
:class:`~repro.shard.engine.ShardedRQTreeEngine` with the same
contract across the shard boundary:

* ``apply`` admits a batch under the apply lock (ids outside the graph
  refuse it before an epoch is minted), mutates the master graph,
  streams each shard its local-id update slice (each worker applies it
  to its own engine, whose index is never rebuilt; the single-threaded
  worker's ack doubles as the old-epoch drain barrier), and only then
  publishes the new snapshot — so a query admitted mid-apply still
  reads its own epoch end to end, with any cross-epoch shard response
  demoted to candidates and recomputed by gateway refinement.  Shard
  payloads (local graph, CSR, shm segment) are respawn recipes, so
  they are rebuilt at the new epoch only under a supervisor, before
  any slice streams;
* ``rebalance`` builds a complete new shard topology (plan, payloads,
  workers) at the *current* epoch while the old one keeps serving,
  then swaps the routing pair atomically, drains the old clients, and
  closes them — zero failed queries by construction;
* ``maybe_rebalance`` consults :class:`~repro.live.rebalance.\
LoadWatermarks` against per-shard sizes and queue depths.

Update streaming tolerates shard failure: a dead worker misses its
slice, but under a supervisor its respawn payload was refreshed
*before* streaming, so the replacement boots directly onto the new
epoch's graph (slices are exact-set/delete-absent-no-op, hence
idempotent against a worker that already carries the batch).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence

from ..core.engine import QueryResult, RQTreeEngine
from ..errors import ShardUnavailableError
from ..graph.uncertain import UncertainGraph
from ..shard.engine import ShardedRQTreeEngine
from ..shard.plan import build_shard_plan
from ..shard.runtime import build_shard_payload
from ..shard.worker import InlineShardClient, ProcessShardClient
from .epochs import EpochStore
from .rebalance import LoadWatermarks
from .updates import UpdateLog, apply_to_graph, shard_slices

__all__ = ["LiveRQTreeEngine", "LiveShardedEngine"]

#: How long a rebalance waits for an old client's in-flight sub-queries
#: to drain before closing it anyway (queries route to the new topology
#: the instant the swap lands; this only bounds straggler cleanup).
_DRAIN_TIMEOUT_SECONDS = 30.0


class LiveRQTreeEngine:
    """A single-process engine that accepts updates while serving.

    ::

        live = LiveRQTreeEngine.build(graph, seed=7)
        epoch = live.apply([("set", 3, 9, 0.8), ("delete", 1, 2)])
        result = live.query([3], eta=0.5)     # runs on epoch's snapshot
        assert result.epoch == epoch
    """

    def __init__(
        self,
        engine: RQTreeEngine,
        store: Optional[EpochStore] = None,
        log: Optional[UpdateLog] = None,
    ) -> None:
        self._engine = engine
        self.graph = engine.graph
        self.store = store or EpochStore()
        self.log = log or UpdateLog()
        self._apply_lock = threading.Lock()
        self._closed = False
        self.store.publish_delta(self.graph, self.log)

    @classmethod
    def build(
        cls,
        graph: UncertainGraph,
        seed: int = 0,
        strategy: str = "multilevel",
        max_imbalance: float = 0.1,
    ) -> "LiveRQTreeEngine":
        """Build the index, then wrap it with the update plane."""
        return cls(
            RQTreeEngine.build(
                graph,
                max_imbalance=max_imbalance,
                seed=seed,
                strategy=strategy,
            )
        )

    @property
    def engine(self) -> RQTreeEngine:
        """The engine over the master graph that batches are applied to."""
        return self._engine

    @property
    def epoch(self) -> int:
        return self.graph.epoch

    @property
    def tree(self):
        """The RQ-tree built at start-up (valid for every epoch's snapshot)."""
        return self._engine.tree

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def apply(self, ops: Iterable[object]) -> int:
        """Admit one update batch; returns the new epoch.

        Serialized under the apply lock: the batch is validated and
        logged, applied to the master graph through
        :meth:`RQTreeEngine.apply`, and a copy-on-write snapshot of the
        result is published as a delta of the previous one.  Queries in
        flight keep their admission epoch's snapshot; queries admitted
        after this call see the new epoch.
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        registry = self._metrics()
        started = time.perf_counter()
        with self._apply_lock:
            epoch, updates = self.log.append(
                ops, num_nodes=self.graph.num_nodes
            )
            self._engine.apply(updates)
            self.graph.set_epoch(epoch)
            self.store.publish_delta(self.graph, self.log)
        registry.counter("live.updates").inc()
        registry.counter("live.ops_applied").inc(len(updates))
        registry.histogram("live.apply_seconds").observe(
            time.perf_counter() - started
        )
        return epoch

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def query(self, *args, **kwargs) -> QueryResult:
        """Answer a query against the current epoch's frozen snapshot.

        The per-epoch query engine (a cheap :class:`RQTreeEngine` over
        the snapshot graph, sharing the start-up tree — any partition
        is a correct index for any epoch) is built lazily and cached on
        the snapshot, so concurrent queries on one epoch share a bounds
        cache.
        """
        with self.store.lease() as lease:
            snapshot = lease.snapshot
            engine = snapshot.engine
            if engine is None:
                engine = RQTreeEngine(
                    lease.graph,
                    self._engine.tree,
                    flow_engine=self._engine.flow_engine,
                )
                snapshot.engine = engine
            return engine.query(*args, **kwargs)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.store.close()

    def __enter__(self) -> "LiveRQTreeEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @staticmethod
    def _metrics():
        from ..service.metrics import get_registry

        return get_registry()


class LiveShardedEngine(ShardedRQTreeEngine):
    """The sharded gateway's write path: streaming updates + rebalance.

    Construction mirrors :meth:`ShardedRQTreeEngine.build` (same
    keywords); the live engine adds ``apply`` / ``rebalance`` /
    ``maybe_rebalance`` on top and pins every query to its admission
    epoch through the inherited scatter/refine pipeline.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.store = EpochStore()
        self.log = UpdateLog()
        self.watermarks: Optional[LoadWatermarks] = None
        self._apply_lock = threading.Lock()
        # Epoch 0: snapshot the pristine graph.  The construction-time
        # shm segments stay engine-owned (self._segments) while their
        # topology is current; under a supervisor each apply hands the
        # outgoing payloads' segments to the outgoing snapshot
        # (EpochStore.adopt), whose drain then unlinks them.
        self.store.publish_delta(self.graph, self.log)

    @classmethod
    def build(cls, graph: UncertainGraph, **kwargs) -> "LiveShardedEngine":
        watermarks = kwargs.pop("watermarks", None)
        engine = super().build(graph, **kwargs)
        engine.watermarks = watermarks
        return engine

    # ------------------------------------------------------------------
    # Epoch pinning (overrides the base engine's frozen no-op lease)
    # ------------------------------------------------------------------
    def _lease_epoch(self):
        return self.store.lease()

    @property
    def epoch(self) -> int:
        return self.graph.epoch

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def apply(self, ops: Iterable[object]) -> int:
        """Admit one update batch across the whole serving stack.

        Order matters (see the module docstring): master mutation
        happens first; under a supervisor, the respawn payloads are
        rebuilt and installed *before* any worker hears about the batch
        (a crash mid-stream then respawns directly onto the new epoch);
        slices stream to every worker (acks prove the old epoch drained
        worker-side), and the snapshot publishes last — so no query can
        be admitted at the new epoch before every worker can answer
        from it.
        """
        if self._closed:
            raise ShardUnavailableError(-1, "engine is closed")
        registry = self._registry()
        started = time.perf_counter()
        with self._apply_lock:
            epoch, updates = self.log.append(
                ops, num_nodes=self.graph.num_nodes
            )
            apply_to_graph(self.graph, updates)
            self.graph.set_epoch(epoch)
            plan, clients, supervisor = self._routing()
            if supervisor is not None:
                payloads, new_segments = self._build_payloads(plan, epoch)
                for shard_id, payload in enumerate(payloads):
                    supervisor.update_payload(shard_id, payload)
                # Hand the outgoing payloads' segments to the outgoing
                # epoch: the old generation's shm lives exactly as long
                # as queries pinned to it.
                outgoing = self.store.current_epoch
                old_segments, self._segments = self._segments, new_segments
                if old_segments and outgoing is not None:
                    self.store.adopt(outgoing, old_segments)
            slices, frontier = shard_slices(updates, plan)
            if frontier:
                registry.counter("live.frontier_ops").inc(len(frontier))
            for shard_id in range(plan.num_shards):
                spec = {"ops": slices.get(shard_id, []), "epoch": epoch}
                client = (
                    supervisor.client(shard_id)
                    if supervisor is not None
                    else clients[shard_id]
                )
                try:
                    client.apply_update(spec)
                except ShardUnavailableError:
                    # The worker missed its slice — but under a
                    # supervisor its respawn payload already carries the
                    # new epoch's graph, so recovery converges on the
                    # same state.
                    registry.counter("live.update_stream_failures").inc()
                    if supervisor is not None:
                        supervisor.report_failure(
                            shard_id, "update stream found the worker gone"
                        )
            self.store.publish_delta(self.graph, self.log)
        registry.counter("live.updates").inc()
        registry.counter("live.ops_applied").inc(len(updates))
        registry.histogram("live.apply_seconds").observe(
            time.perf_counter() - started
        )
        return epoch

    def _build_payloads(self, plan, epoch: int):
        """Fresh per-shard payloads for the current master graph (the
        supervisor's respawn recipes, and a rebalance's new shards)."""
        payloads: List[Dict[str, object]] = []
        segments: List[str] = []
        for shard_id in range(plan.num_shards):
            payload = build_shard_payload(
                self.graph, plan, shard_id,
                seed=plan.seed,
                flow_engine=self.flow_engine,
                transport=self.transport,
                epoch=epoch,
            )
            if "shm" in payload:
                segments.append(payload["shm"]["name"])
            payloads.append(payload)
        return payloads, segments

    # ------------------------------------------------------------------
    # Rebalancing
    # ------------------------------------------------------------------
    def rebalance(
        self,
        shards: int,
        start_timeout: float = 300.0,
        drain_timeout: float = _DRAIN_TIMEOUT_SECONDS,
    ) -> None:
        """Move to a *shards*-way topology with zero downtime.

        The entire new topology — plan, payloads, workers with built
        indexes — is constructed at the current epoch while the old one
        keeps answering every query.  Only then does the routing pair
        swap (atomic under the routing lock); queries that already
        snapshotted the old routing finish against the old clients,
        which are drained (in-flight count reaches zero) and closed.
        No query ever observes a half-built topology, so the failed- or
        stale-answer count of a mid-stream rebalance is zero by
        construction.
        """
        if self._closed:
            raise ShardUnavailableError(-1, "engine is closed")
        registry = self._registry()
        started = time.perf_counter()
        with self._apply_lock:
            epoch = self.graph.epoch
            new_plan = build_shard_plan(
                self.graph, shards, seed=self.plan.seed
            )
            payloads, new_segments = self._build_payloads(new_plan, epoch)
            new_clients: List[object] = []
            try:
                if self.mode == "process":
                    new_clients = [ProcessShardClient(p) for p in payloads]
                    for client in new_clients:
                        client.wait_ready(timeout=start_timeout)
                else:
                    new_clients = [InlineShardClient(p) for p in payloads]
            except BaseException:
                for client in new_clients:
                    try:
                        client.close()
                    except Exception:  # pragma: no cover - best effort
                        pass
                self._release_segments(new_segments)
                raise
            with self._routing_lock:
                old_clients = self._clients
                self.plan = new_plan
                self._clients = new_clients
            if self._supervisor is not None:
                self._supervisor.reconfigure(new_clients, payloads)
            old_segments, self._segments = self._segments, new_segments
            self._drain_and_close(old_clients, drain_timeout)
            self._release_segments(old_segments)
        registry.counter("live.rebalances").inc()
        registry.histogram("live.rebalance_seconds").observe(
            time.perf_counter() - started
        )

    def maybe_rebalance(self) -> Optional[int]:
        """Split shards when a load/size watermark trips.

        Returns the new shard count when a rebalance ran, else
        ``None`` (no watermarks configured, or none exceeded).
        """
        if self.watermarks is None:
            return None
        plan, clients, supervisor = self._routing()
        sizes = [len(members) for members in plan.shard_nodes]
        depths = []
        for shard_id in range(plan.num_shards):
            client = (
                supervisor.client(shard_id)
                if supervisor is not None
                else clients[shard_id]
            )
            depths.append(getattr(client, "queue_depth", 0))
        target = self.watermarks.proposed_shards(sizes, depths)
        if target is None:
            return None
        self.rebalance(target)
        return target

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        super().close()
        self.store.close()

    @staticmethod
    def _drain_and_close(clients: Sequence[object], timeout: float) -> None:
        deadline = time.monotonic() + timeout
        for client in clients:
            while (
                getattr(client, "queue_depth", 0) > 0
                and getattr(client, "is_alive", lambda: False)()
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            try:
                client.close()
            except Exception:  # pragma: no cover - best effort
                pass

    @staticmethod
    def _release_segments(names: Sequence[str]) -> None:
        if not names:
            return
        from ..shard import shm

        for name in names:
            shm.registry.release(name)
