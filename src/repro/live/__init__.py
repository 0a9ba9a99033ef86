"""The live update plane: epochs, streaming arc updates, rebalancing.

Everything built before this package serves a graph frozen at process
start.  :mod:`repro.live` adds the write path:

* :class:`UpdateLog` — batched arc updates (probability sets, inserts,
  deletes) admitted under a monotonic **epoch** counter;
* :class:`EpochStore` — copy-on-write snapshots per epoch with leased,
  refcounted lifetimes, so queries always run against the epoch they
  were admitted on while updates land on the master graph; each epoch
  is published as a delta of the last (shared rows, carried CSR);
* :class:`LiveRQTreeEngine` — a single-process engine pairing an
  :class:`~repro.core.engine.RQTreeEngine` (batches applied through
  its ``apply``) with the epoch store (query isolation);
* :class:`LiveShardedEngine` — the sharded gateway's write path:
  per-shard update slices streamed to workers (each applies its slice
  to its own engine), respawn payloads refreshed only under a
  supervisor, epoch-tagged scatter requests with stale-response
  demotion, and zero-downtime shard rebalancing through the
  supervisor's warm-standby machinery.

The parity contract (ROADMAP): after any update stream, answers match a
cold rebuild bit-for-bit on ``lb``/``lb+``/``exact`` and within
sampling bounds on ``mc``/``rss``/``lazy``, at every shard count.  The
structural fact that makes this cheap is that *any hierarchical
partition is a correct RQ-tree* (the ``U_out`` bounds are computed
against the current graph), so the index built at start-up serves
every later epoch: it is never wrong, only possibly less selective,
and ``lb`` answers are tree-independent.
"""

from .updates import ArcUpdate, UpdateLog, apply_to_graph, shard_slices
from .epochs import EpochLease, EpochSnapshot, EpochStore
from .engine import LiveRQTreeEngine, LiveShardedEngine
from .rebalance import LoadWatermarks

__all__ = [
    "ArcUpdate",
    "EpochLease",
    "EpochSnapshot",
    "EpochStore",
    "LiveRQTreeEngine",
    "LiveShardedEngine",
    "LoadWatermarks",
    "UpdateLog",
    "apply_to_graph",
    "shard_slices",
]
