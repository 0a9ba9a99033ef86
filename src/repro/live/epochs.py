"""Epoch-versioned copy-on-write snapshots with leased lifetimes.

The update plane's isolation rule is simple: **a query runs against the
epoch it was admitted on, start to finish**.  The master graph mutates
under the apply lock; queries never touch it.  Instead,
:class:`EpochStore` keeps one frozen copy-on-write snapshot per
published epoch:

* ``publish(graph)`` registers the snapshot under ``graph.epoch`` and
  supersedes every older epoch;
* ``publish_delta(master, log)`` is how the live engines publish: the
  new snapshot shares the current one's rows except those the logged
  batches touched, which it copies from the master, and inherits the
  current snapshot's CSR repacked row by row — so an epoch costs the
  rows its batch touched, not a copy and a pack of the whole graph;
* ``lease()`` hands a query the *current* snapshot and pins it: a
  superseded epoch survives exactly as long as queries admitted on it
  are still running;
* the last lease release of a superseded epoch frees it — dropping the
  graph copy and releasing any shared-memory segments that epoch
  published for its shard workers through the refcounted
  :class:`~repro.shard.shm.SegmentRegistry` (which unlinks on the last
  release, so ``/dev/shm`` never accumulates dead generations).

The store also owns the ``live.epoch`` gauge so operators can watch
the serving generation advance.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..accel.csr import carry_snapshot
from ..graph.uncertain import UncertainGraph
from .updates import UpdateLog

__all__ = ["EpochLease", "EpochSnapshot", "EpochStore"]


@dataclass
class EpochSnapshot:
    """One published generation: a frozen graph plus owned resources."""

    epoch: int
    graph: UncertainGraph
    #: Shared-memory segment names tied to this epoch (a supervised
    #: engine's per-shard payload segments); released when the
    #: snapshot is freed.
    segments: List[str] = field(default_factory=list)
    #: Per-epoch query engine slot (a cheap RQTreeEngine sharing the
    #: start-up tree), built lazily by LiveRQTreeEngine so concurrent
    #: queries on one epoch share a bounds cache.
    engine: Optional[object] = None
    leases: int = 0
    superseded: bool = False


class EpochLease:
    """A pinned snapshot; release it when the query finishes.

    Usable as a context manager.  ``graph`` and ``epoch`` stay valid —
    and the epoch's shm segments stay published — until release.
    """

    __slots__ = ("_store", "_snapshot", "_released")

    def __init__(self, store: "EpochStore", snapshot: EpochSnapshot) -> None:
        self._store = store
        self._snapshot = snapshot
        self._released = False

    @property
    def epoch(self) -> int:
        return self._snapshot.epoch

    @property
    def graph(self) -> UncertainGraph:
        return self._snapshot.graph

    @property
    def snapshot(self) -> EpochSnapshot:
        return self._snapshot

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self._store._release(self._snapshot)

    def __enter__(self) -> "EpochLease":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


class EpochStore:
    """Registry of published epoch snapshots with drain-based cleanup."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._snapshots: Dict[int, EpochSnapshot] = {}
        self._current: Optional[int] = None

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------
    def publish(
        self,
        graph: UncertainGraph,
        segments: Optional[List[str]] = None,
    ) -> EpochSnapshot:
        """Register *graph* (already stamped with its epoch) as current.

        Every older snapshot is marked superseded; those with no
        outstanding leases are freed immediately, the rest when their
        last lease drains.  Epochs must be published in increasing
        order (the apply lock serializes publishers).
        """
        snapshot = EpochSnapshot(
            epoch=graph.epoch,
            graph=graph,
            segments=list(segments or []),
        )
        to_free: List[EpochSnapshot] = []
        with self._lock:
            if self._current is not None and graph.epoch <= self._current:
                raise ValueError(
                    f"epoch {graph.epoch} already published "
                    f"(current is {self._current})"
                )
            self._snapshots[snapshot.epoch] = snapshot
            self._current = snapshot.epoch
            for old in self._snapshots.values():
                if old.epoch < snapshot.epoch and not old.superseded:
                    old.superseded = True
                    if old.leases == 0:
                        to_free.append(old)
        for old in to_free:
            self._free(old)
        self._metrics().gauge("live.epoch").set(snapshot.epoch)
        return snapshot

    def publish_delta(
        self, graph: UncertainGraph, log: UpdateLog
    ) -> EpochSnapshot:
        """Publish the master *graph*'s new epoch as a delta of the last.

        *log* holds every batch applied to *graph* since the current
        snapshot was published.  The new snapshot shares every row of
        the current one except the successor rows of the batches' tails
        and the predecessor rows of their heads, which it copies from
        *graph* (:meth:`UncertainGraph.copy_sharing`); published rows
        are never mutated, and no snapshot row is ever a master dict.
        If the current snapshot holds a current CSR, the new one is
        derived from it (:func:`~repro.accel.csr.carry_snapshot`) rather
        than packed again by the epoch's first sampled query.  With no
        snapshot to start from (epoch 0), or a gap in the log's retained
        batches, the snapshot is a full copy.
        """
        with self._lock:
            base = (
                self._snapshots.get(self._current)
                if self._current is not None else None
            )
        batches = log.since(base.epoch) if base is not None else []
        if not batches or batches[0][0] != base.epoch + 1:
            return self.publish(graph.copy(preserve_versioning=True))
        tails = {update.u for _, batch in batches for update in batch}
        heads = {update.v for _, batch in batches for update in batch}
        snapshot = graph.copy_sharing(base.graph, tails, heads)
        carry_snapshot(base.graph, snapshot, tails, heads)
        return self.publish(snapshot)

    def adopt(self, epoch: int, segments: List[str]) -> bool:
        """Attach segment names to an *existing* snapshot's lifetime.

        The sharded apply flow uses this to hand the outgoing epoch its
        own shm segments just before the new epoch is published: the
        old generation's segments must survive exactly as long as
        queries pinned to it, which is precisely the snapshot's
        lifetime.  Returns ``False`` (releasing the segments
        immediately) when the epoch is already gone.
        """
        with self._lock:
            snapshot = self._snapshots.get(epoch)
            if snapshot is not None:
                snapshot.segments.extend(segments)
                return True
        from ..shard import shm

        for name in segments:
            if shm.registry.release(name):
                self._metrics().counter("live.segments_released").inc()
        return False

    # ------------------------------------------------------------------
    # Leasing
    # ------------------------------------------------------------------
    @property
    def current_epoch(self) -> Optional[int]:
        with self._lock:
            return self._current

    def lease(self, epoch: Optional[int] = None) -> EpochLease:
        """Pin the current (or a specific, still-held) epoch."""
        with self._lock:
            target = self._current if epoch is None else epoch
            snapshot = self._snapshots.get(target) if target is not None else None
            if snapshot is None:
                raise KeyError(
                    f"epoch {target!r} is not available "
                    f"(held: {sorted(self._snapshots)})"
                )
            snapshot.leases += 1
        return EpochLease(self, snapshot)

    def _release(self, snapshot: EpochSnapshot) -> None:
        with self._lock:
            snapshot.leases -= 1
            free = snapshot.superseded and snapshot.leases == 0
            if free:
                self._snapshots.pop(snapshot.epoch, None)
        if free:
            self._free(snapshot, pop=False)

    # ------------------------------------------------------------------
    # Cleanup
    # ------------------------------------------------------------------
    def _free(self, snapshot: EpochSnapshot, pop: bool = True) -> None:
        if pop:
            with self._lock:
                self._snapshots.pop(snapshot.epoch, None)
        if snapshot.segments:
            from ..shard import shm

            for name in snapshot.segments:
                if shm.registry.release(name):
                    self._metrics().counter("live.segments_released").inc()
            snapshot.segments = []
        snapshot.engine = None
        self._metrics().counter("live.epochs_freed").inc()

    def held_epochs(self) -> List[int]:
        """Epochs still resident (current plus leased stragglers)."""
        with self._lock:
            return sorted(self._snapshots)

    def close(self) -> None:
        """Free every snapshot regardless of leases (engine shutdown)."""
        with self._lock:
            snapshots = list(self._snapshots.values())
            self._snapshots.clear()
            self._current = None
        for snapshot in snapshots:
            self._free(snapshot, pop=False)

    @staticmethod
    def _metrics():
        from ..service.metrics import get_registry

        return get_registry()
