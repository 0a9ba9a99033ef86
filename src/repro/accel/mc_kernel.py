"""Batch-of-worlds Monte-Carlo reachability kernel on the candidate subgraph.

RQ-tree-MC samples only the candidate-induced subgraph (paper,
Section 5.2), so the kernel's unit of work is that subgraph, not the
graph.  :class:`ReachPlan` extracts it once from the whole-graph CSR
snapshot: the allowed nodes get local ids ``0 .. n_local-1`` in
ascending global-id order (so nothing depends on set iteration order),
and only arcs with *both* ends allowed are kept, grouped by target in
reverse-CSR order.  ``allowed=None`` is the whole-graph case, with
local ids equal to global ids.

:func:`sample_reach_batch` then advances ``W`` worlds *simultaneously*
by packing them into the bits of ``uint64`` words:

* arc coins for a whole chunk are materialized in one
  ``Generator.random`` draw over the plan's arcs and bit-packed into
  ``coins[m_local, W/8]`` bytes, zero-padded to a multiple of 8 so
  every row view-casts to ``uint64`` words;
* reachability state is ``visited[n_local, W/8]`` /
  ``frontier[n_local, W/8]`` bitmaps — one word carries sixty-four
  worlds;
* one BFS step is three vectorized passes: gather
  ``frontier[src_of_each_in_arc] & coins``, OR-reduce the arc rows per
  target node with ``np.bitwise_or.reduceat`` (the arcs are grouped by
  target), and mask out already-visited targets.

Memory and time therefore follow the candidate set: a 16-node
candidate set on a 20,000-node graph draws coins for its own few dozen
arcs only.

Materializing every coin up front is *exactly* possible-world
semantics — lazy per-arc flipping is justified in the paper precisely
because it is distributionally equivalent to materializing the world
first, and this kernel simply takes the other side of that equivalence.
Coins the BFS never observes don't bias anything: they are independent
of the reached set.

Worlds are processed in chunks sized to bound peak memory (the one-shot
coin draw dominates), so ``K`` can be arbitrarily large; per-node hit
counts and per-world reached-set sizes are accumulated across chunks.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

import numpy as np

from ..graph.uncertain import UncertainGraph
from ..resilience.faultinject import fault_point
from .csr import CSRGraph, csr_snapshot

__all__ = [
    "BatchReachResult", "ReachPlan", "draw_coins", "pack_world_bits",
    "packed_columns", "sample_reach_batch",
]

#: Upper bound on (worlds per chunk) x arcs: the chunk's float32
#: uniform draw is ``4 * m_local * W`` bytes, so 16M slots caps the
#: transient at 64 MB (the packed state arrays are 32x smaller).
_TARGET_SLOTS = 16_000_000
#: Hard bounds on the world-chunk size.
_MIN_CHUNK, _MAX_CHUNK = 8, 4096


class ReachPlan:
    """The candidate-induced subgraph in local ids.

    Built once per sampling run and reused by every chunk and every
    continuation call.  Attributes:

    ``nodes``
        Global id of each local node, ascending.
    ``predecessors`` / ``targets``
        Local tail and head of each kept arc, grouped by head.
    ``probs_f32``
        Arc existence probabilities, in the same order.  float32: ~2x
        cheaper uniforms, and the 2^-24 rounding of a probability is
        far below any Monte-Carlo resolution.
    """

    __slots__ = (
        "nodes", "num_nodes", "num_arcs", "predecessors", "targets",
        "probs_f32", "segment_starts", "has_in",
    )

    def __init__(
        self,
        csr: CSRGraph,
        allowed: Optional[Iterable[int]] = None,
    ) -> None:
        if allowed is None:
            nodes = np.arange(csr.num_nodes, dtype=np.int64)
            in_degrees = np.diff(csr.rev_indptr)
            targets = np.repeat(nodes, in_degrees)
            predecessors = csr.rev_indices
            probs = csr.rev_probs_f32
        else:
            nodes = np.unique(np.fromiter(allowed, dtype=np.int64))
            starts = csr.rev_indptr[nodes]
            in_degrees = csr.rev_indptr[nodes + 1] - starts
            # Row ids of every in-arc of an allowed node, grouped by
            # target in ascending local order.
            first = np.repeat(starts - np.cumsum(in_degrees) + in_degrees,
                              in_degrees)
            rows = first + np.arange(first.size, dtype=np.int64)
            targets = np.repeat(
                np.arange(nodes.size, dtype=np.int64), in_degrees
            )
            tails = csr.rev_indices[rows]
            local = np.searchsorted(nodes, tails)
            keep = local < nodes.size
            keep[keep] = nodes[local[keep]] == tails[keep]
            rows, targets, predecessors = rows[keep], targets[keep], local[keep]
            probs = csr.rev_probs_f32[rows]
        self.nodes = nodes
        self.num_nodes = int(nodes.size)
        self.num_arcs = int(probs.size)
        self.targets = targets
        self.predecessors = predecessors
        self.probs_f32 = probs
        sub_in_degrees = np.bincount(targets, minlength=self.num_nodes)
        self.has_in = sub_in_degrees > 0
        # reduceat segment starts for nodes with at least one in-arc;
        # empty segments are excluded because reduceat would return the
        # row *at* the boundary, not an empty OR.
        self.segment_starts = (np.cumsum(sub_in_degrees) - sub_in_degrees)[
            self.has_in
        ]

    def local_ids(self, nodes: Iterable[int]) -> np.ndarray:
        """Local ids of the allowed members of *nodes* (others dropped)."""
        ids = np.fromiter(dict.fromkeys(int(v) for v in nodes), dtype=np.int64)
        local = np.searchsorted(self.nodes, ids)
        inside = local < self.num_nodes
        inside[inside] = self.nodes[local[inside]] == ids[inside]
        return local[inside]

    def with_forced_arcs(
        self, arcs: Sequence[int], present: Sequence[bool]
    ) -> "ReachPlan":
        """A copy whose arcs ``arcs`` (plan arc indices) exist with
        probability 1 where *present* is true and 0 where it is false —
        one stratum of recursive stratified sampling."""
        plan = object.__new__(ReachPlan)
        for name in ReachPlan.__slots__:
            setattr(plan, name, getattr(self, name))
        probs = self.probs_f32.copy()
        probs[list(arcs)] = [1.0 if flag else 0.0 for flag in present]
        plan.probs_f32 = probs
        return plan


class BatchReachResult:
    """Accumulated output of a batched sampling run.

    Attributes
    ----------
    nodes:
        ``int64[n_local]`` — global id of each counted node (the plan's
        allowed nodes, ascending).
    counts:
        ``int64[n_local]`` — in how many of the ``num_worlds`` worlds
        each of ``nodes`` was reached from the source set.
    world_sizes:
        ``int64[num_worlds]`` — size of the reached set per world (the
        quantity influence-spread estimation averages).
    num_worlds:
        Total number of worlds simulated.
    """

    __slots__ = ("nodes", "counts", "world_sizes", "num_worlds")

    def __init__(
        self, nodes: np.ndarray, counts: np.ndarray, world_sizes: np.ndarray
    ) -> None:
        self.nodes = nodes
        self.counts = counts
        self.world_sizes = world_sizes
        self.num_worlds = int(world_sizes.shape[0])


def packed_columns(num_worlds: int) -> int:
    """Packed ``uint8`` columns holding *num_worlds* world bits.

    ``ceil(num_worlds / 8)`` rounded up to a multiple of 8 bytes, so a
    packed row is always view-castable to the kernel's ``uint64``
    words.  The pad bytes are zero — phantom worlds in which no coin
    ever lands heads — and are sliced off when the kernel unpacks its
    result.
    """
    return ((num_worlds + 63) // 64) * 8


def pack_world_bits(raw: np.ndarray) -> np.ndarray:
    """Bit-pack boolean world rows into zero-padded ``uint8`` rows.

    Exactly ``np.packbits(raw, axis=1)`` followed by zero-padding each
    row to :func:`packed_columns` width.
    """
    packed = np.packbits(raw, axis=1)
    width = packed_columns(raw.shape[1])
    if packed.shape[1] == width:
        return packed
    padded = np.zeros((packed.shape[0], width), dtype=np.uint8)
    padded[:, : packed.shape[1]] = packed
    return padded


def draw_coins(
    rng: np.random.Generator, plan: ReachPlan, size: int
) -> np.ndarray:
    """One chunk of packed coins for *plan*'s arcs: ``size`` worlds.

    One float32 uniform per (arc, world), compared against the arc's
    probability and bit-packed: ``uint8[plan.num_arcs,
    packed_columns(size)]``.
    """
    return pack_world_bits(
        rng.random((plan.num_arcs, size), dtype=np.float32)
        < plan.probs_f32[:, None]
    )


def _chunk_size(plan: ReachPlan, num_worlds: int) -> int:
    footprint = max(plan.num_nodes, plan.num_arcs, 1)
    chunk = _TARGET_SLOTS // footprint
    return max(_MIN_CHUNK, min(_MAX_CHUNK, chunk, num_worlds))


def _simulate_chunk(
    plan: ReachPlan,
    source_idx: np.ndarray,
    num_worlds: int,
    rng: np.random.Generator,
    max_hops: Optional[int],
) -> np.ndarray:
    """Advance *num_worlds* worlds to fixpoint; returns the reached
    bits as ``uint8[n_local, num_worlds]``.

    Word column ``b`` of node row ``v`` holds worlds ``64b .. 64b+63``,
    so every bitwise op below advances sixty-four worlds at once.
    Trailing pad bits are phantom worlds whose coins pack to 0
    (:func:`pack_world_bits` zero-pads), so nothing propagates in them
    and they are sliced off at the end.
    """
    visited = np.zeros(
        (plan.num_nodes, packed_columns(num_worlds)), dtype=np.uint8
    )
    if source_idx.size:
        visited[source_idx] = 0xFF
    # The word view shares `visited`'s bytes: writes through it land in
    # the uint8 array the final unpack reads.
    visited_w = visited.view(np.uint64)
    if source_idx.size and plan.num_arcs and (
        max_hops is None or max_hops > 0
    ):
        # One Bernoulli coin per (arc, world), in the plan's arc order
        # (grouped by target) so the reduceat below needs no
        # permutation.
        coins = draw_coins(rng, plan, num_worlds).view(np.uint64)
        frontier = visited_w.copy()
        new = np.empty_like(frontier)
        depth = 0
        while max_hops is None or depth < max_hops:
            # Only arcs whose tail has a live frontier bit in *some*
            # world can propagate; when few do (small reached sets —
            # the subcritical regime), scatter just those rows instead
            # of gathering every arc.  OR accumulation is
            # order-independent, so both paths produce identical bits.
            live = frontier.any(axis=1)
            active = np.nonzero(live[plan.predecessors])[0]
            if active.size == 0:
                break
            # NOTE: ``frontier`` aliases ``new`` after the first
            # iteration, so the candidate gather (a fancy-index copy)
            # must happen before ``new`` is zeroed.
            if active.size * 8 < plan.num_arcs:
                candidate = frontier[plan.predecessors[active]]
                candidate &= coins[active]
                new[:] = 0
                np.bitwise_or.at(new, plan.targets[active], candidate)
            else:
                candidate = frontier[plan.predecessors]
                candidate &= coins
                new[:] = 0
                new[plan.has_in] = np.bitwise_or.reduceat(
                    candidate, plan.segment_starts, axis=0
                )
            new &= ~visited_w
            if not new.any():
                break
            visited_w |= new
            frontier = new
            depth += 1
    return np.unpackbits(visited, axis=1, count=num_worlds)


def sample_reach_batch(
    graph: Union[UncertainGraph, CSRGraph, ReachPlan],
    sources: Sequence[int],
    num_worlds: int,
    rng: np.random.Generator,
    allowed: Optional[Iterable[int]] = None,
    max_hops: Optional[int] = None,
) -> BatchReachResult:
    """Sample *num_worlds* possible worlds of the candidate subgraph.

    Parameters
    ----------
    graph:
        An :class:`UncertainGraph` (its cached CSR snapshot is used), a
        pre-built :class:`CSRGraph`, or a :class:`ReachPlan` already
        extracted for the candidate set — callers sampling in several
        calls pass the plan so the subgraph is extracted once.
    sources:
        Source node ids; those outside *allowed* are dropped.
    rng:
        A ``numpy.random.Generator``; the caller owns the state, so
        successive calls continue one deterministic stream.
    allowed:
        The candidate node set sampling is restricted to (the
        candidate-induced subgraph of RQ-tree-MC verification);
        ``None`` samples the whole graph.  Ignored when *graph* is a
        plan, which already fixes the set.
    max_hops:
        Optional hop budget (distance-constrained reachability): level
        ``d`` of the frontier is the set first reached after ``d`` hops,
        so capping the levels is exact.
    """
    if num_worlds <= 0:
        raise ValueError(f"num_worlds must be positive, got {num_worlds}")
    if isinstance(graph, ReachPlan):
        plan = graph
    else:
        csr = graph if isinstance(graph, CSRGraph) else csr_snapshot(graph)
        plan = ReachPlan(csr, allowed)

    from ..service.metrics import get_registry

    registry = get_registry()
    registry.counter("accel.kernel_calls").inc()
    registry.counter("accel.kernel_worlds").inc(num_worlds)

    source_idx = plan.local_ids(sources)
    counts = np.zeros(plan.num_nodes, dtype=np.int64)
    world_sizes = np.empty(num_worlds, dtype=np.int64)
    chunk = _chunk_size(plan, num_worlds)
    done = 0
    while done < num_worlds:
        fault_point("mc.kernel.chunk")
        registry.counter("accel.kernel_chunks").inc()
        size = min(chunk, num_worlds - done)
        bits = _simulate_chunk(plan, source_idx, size, rng, max_hops)
        counts += bits.sum(axis=1, dtype=np.int64)
        world_sizes[done:done + size] = bits.sum(axis=0, dtype=np.int64)
        done += size
    return BatchReachResult(plan.nodes, counts, world_sizes)
