"""Cross-query world batching: share sampled worlds between queries.

The s-t reliability literature's main cost observation (Ke et al.) is
that *sample sharing across queries* dominates every other lever once
an index is in place.  In this engine the shareable unit is the MC
kernel's coin draw: the packed Bernoulli matrix for a chunk of worlds
depends only on ``(graph.version, candidate set, seed, num_samples)``
— not on the query's sources or hop budget — so any set of concurrent
queries with the same sampling signature over the same candidate set
would each draw the *same* coins.  In particular, concurrent queries
whose candidate sets coincide (the common monitoring shape: many
sources polled against one region at one seed, or a sharded gateway
verifying every ``mc`` query over the whole graph) all share one
batch of worlds instead of sampling it once per query.

:class:`WorldBatcher` deduplicates that work.  Workers *lease* a
:class:`~repro.accel.coins.CoinBlock` for their query's
:class:`BatchKey` before calling the engine and *release* it after;
all concurrent holders of one key share one block, the first consumer
of each chunk pays for its draw, and the block is dropped when the
last holder releases it (repeat queries over time are the result
cache's job, not the batcher's).  While it lives, a block keeps the
streams no run is reading for holders that reach the kernel later, up
to :data:`IDLE_COIN_BYTES`; so its memory is bounded by the streams
its running holders read plus that budget, however many candidate
sets pass through it.

Because a block's bits are exactly what a private per-query
``default_rng(seed)`` would have drawn (see
:mod:`repro.accel.coins`), sharing never changes any query's answer:
concurrent and serial execution stay byte-identical.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional

from ..accel.coins import CoinBlock
from .metrics import MetricsRegistry, get_registry

__all__ = ["BatchKey", "IDLE_COIN_BYTES", "WorldBatcher"]

#: Bytes of idle coin streams one live block keeps: about the kernel's
#: own transient float32 draw for one chunk (16M slots, 64 MB), so
#: keeping them costs no more than one more chunk in flight.
IDLE_COIN_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class BatchKey:
    """Identity of one shareable sampling stream.

    Queries with equal keys lease one block: the coins depend on the
    graph version (arc order and probabilities), the verification seed,
    and the total world count (which fixes the chunk partition).
    Sources and hop budgets do NOT enter the key.  Candidate sets do
    not either: the block keeps one stream per candidate set, so only
    queries whose candidate sets are equal actually share coins.
    """

    graph_version: int
    seed: int
    num_worlds: int


class _Lease:
    __slots__ = ("block", "holders")

    def __init__(self, block: CoinBlock) -> None:
        self.block = block
        self.holders = 0


class WorldBatcher:
    """Reference-counted pool of live :class:`CoinBlock` objects."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._lock = threading.Lock()
        self._leases: Dict[BatchKey, _Lease] = {}
        self._registry = registry

    def _metrics(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    @staticmethod
    def eligible(
        method: str,
        seed: Optional[int],
        budget: Optional[object],
    ) -> bool:
        """Whether a query's sampling work is shareable.

        Only un-budgeted, explicitly seeded MC verification shares:
        budgeted runs chunk their sampling by wall clock (a different,
        load-dependent partition) and unseeded runs are fresh draws by
        contract.
        """
        return method == "mc" and seed is not None and budget is None

    def lease(self, key: BatchKey) -> CoinBlock:
        """The shared block for *key*, created on first lease.

        Must be paired with :meth:`release` (use try/finally)."""
        metrics = self._metrics()
        with self._lock:
            lease = self._leases.get(key)
            if lease is None:
                lease = self._leases[key] = _Lease(
                    CoinBlock(key.seed, key.num_worlds, IDLE_COIN_BYTES)
                )
                metrics.counter("service.batcher.blocks_created").inc()
            else:
                metrics.counter("service.batcher.blocks_shared").inc()
            lease.holders += 1
            metrics.gauge("service.batcher.active_blocks").set(
                len(self._leases)
            )
            return lease.block

    def release(self, key: BatchKey) -> None:
        """Drop one hold on *key*; the block dies with its last holder."""
        with self._lock:
            lease = self._leases.get(key)
            if lease is None:
                return
            lease.holders -= 1
            if lease.holders <= 0:
                block = self._leases.pop(key).block
                metrics = self._metrics()
                metrics.counter("service.batcher.chunks_drawn").inc(
                    block.draws
                )
                metrics.counter("service.batcher.chunks_reused").inc(
                    block.hits
                )
                metrics.gauge("service.batcher.active_blocks").set(
                    len(self._leases)
                )

    @property
    def active_blocks(self) -> int:
        with self._lock:
            return len(self._leases)
