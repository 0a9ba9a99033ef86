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

* reachability state is ``visited[n_local, W/8]`` /
  ``frontier[n_local, W/8]`` bitmaps — one word carries sixty-four
  worlds;
* one BFS level ANDs ``frontier[tail_of_each_active_arc]`` with the
  arcs' coins, ORs the rows per target node, and masks out
  already-visited targets;
* coins follow the frontier, as the paper's lazy flipping does: a
  level on which few arcs have a live tail (fewer than one in eight)
  draws coins for those arcs only; a level on which many do reads one
  full coin table (:func:`draw_coins`) over every arc of the plan,
  drawn the first time such a level occurs in a chunk and reused by
  the chunk's later ones;
* a coin is one uint32 draw ``v`` taken from the generator's raw
  64-bit words (low half first), heads when ``v <= coin_max`` for the
  arc's threshold ``coin_max = ceil(p * 2^24) * 256 - 1``.  numpy's
  float32 uniform is ``(v >> 8) * 2^-24`` of the same draw, so the coin
  is exactly ``uniform < p``, bit for bit, at half the generator calls;
  the generator must therefore emit 64-bit words (PCG64, the
  ``default_rng`` generator, does);
* a node's hit count is the popcount of its reached-bit row.

Memory and time therefore follow the candidate set and the part of it
the BFS reaches: a 16-node candidate set on a 20,000-node graph never
touches the graph's other arcs, and a candidate set whose worlds stay
small draws coins for the few arcs its frontiers leave by.

This is exact possible-world semantics.  A node enters the frontier
at most once per world (the ``visited`` mask), so the coin of arc
``(u, v)`` in world ``w`` is read at most once — on the level where
``u`` is in world ``w``'s frontier — and from exactly one source,
that level's fresh draw or the shared table.  Every coin the BFS reads
is therefore an independent Bernoulli(p) draw that no earlier step
looked at, which is the paper's lazy flipping; coins drawn but never
read bias nothing, being independent of the reached set.

Worlds are processed in chunks sized to bound peak memory (a full coin
table dominates), so ``K`` can be arbitrarily large; per-node hit
counts are accumulated across chunks.  :class:`Strata` splits a run's
worlds into consecutive segments that fix chosen arcs' coins
(recursive stratified sampling's strata), with hit counts kept per
segment (the popcount of each row under the segment's word mask).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..graph.uncertain import UncertainGraph
from ..resilience.faultinject import fault_point
from .csr import CSRGraph, csr_snapshot

__all__ = [
    "BatchReachResult", "ReachPlan", "Strata", "draw_coins",
    "pack_world_bits", "packed_columns", "sample_reach_batch",
]

#: Upper bound on (worlds per chunk) x arcs: a full coin table's
#: uint32 draws are ``4 * m_local * W`` bytes, so 16M slots caps the
#: transient at 64 MB (the packed state arrays are 32x smaller).
_TARGET_SLOTS = 16_000_000
#: Hard bounds on the world-chunk size.
_MIN_CHUNK, _MAX_CHUNK = 8, 4096
#: numpy's bit generators whose raw output is 64-bit words, each
#: handed out by ``Generator`` as its low 32 bits and then its high
#: 32 bits (MT19937's raw output is 32-bit words).
_WORD_GENERATORS = (
    np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64,
)


class ReachPlan:
    """The candidate-induced subgraph in local ids.

    Built once per sampling run and reused by every chunk and every
    continuation call.  Attributes:

    ``nodes``
        Global id of each local node, ascending.
    ``predecessors`` / ``targets``
        Local tail and head of each kept arc, grouped by head.
    ``probs_f32``
        Arc existence probabilities, in the same order.  float32: the
        2^-24 rounding of a probability is far below any Monte-Carlo
        resolution.  An arc whose probability rounds to 0 exists in no
        world and is left out of the plan.
    ``coin_max``
        Each arc's coin threshold, ``ceil(p * 2^24) * 256 - 1`` as
        uint32: a uint32 draw ``v`` is heads when ``v <= coin_max``,
        which is the float32 uniform ``(v >> 8) * 2^-24`` falling
        below ``p``.
    """

    __slots__ = (
        "nodes", "num_nodes", "num_arcs", "predecessors", "targets",
        "probs_f32", "coin_max", "segment_starts", "has_in",
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
        if not probs.all():
            # No uint32 draw lies at or below the threshold -1 that a
            # probability of 0 would need.
            kept = probs > 0
            targets, predecessors, probs = (
                targets[kept], predecessors[kept], probs[kept]
            )
        self.nodes = nodes
        self.num_nodes = int(nodes.size)
        self.num_arcs = int(probs.size)
        self.targets = targets
        self.predecessors = predecessors
        self.probs_f32 = probs
        # p * 2^24 is exact in float64; ceil(p * 2^24) is 1 .. 2^24.
        self.coin_max = (
            np.ceil(probs.astype(np.float64) * (1 << 24)).astype(np.int64)
            * 256 - 1
        ).astype(np.uint32)
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


class Strata(NamedTuple):
    """Consecutive world segments with some arcs' coins fixed.

    The run's first ``sizes[0]`` worlds are segment 0, the next
    ``sizes[1]`` segment 1, and so on.  In every world of segment
    ``s``, arc ``arcs[i]`` (a plan arc index) exists exactly when
    ``present[s][i]`` is true; every other arc keeps its random coin.
    One segment per stratum of recursive stratified sampling.
    """

    arcs: Sequence[int]
    present: Sequence[Sequence[bool]]
    sizes: Sequence[int]


class BatchReachResult:
    """Accumulated output of a batched sampling run.

    Attributes
    ----------
    nodes:
        ``int64[n_local]`` — global id of each counted node (the plan's
        allowed nodes, ascending).
    stratum_counts:
        ``int64[segments, n_local]`` — in how many worlds of each
        :class:`Strata` segment each of ``nodes`` was reached (one
        segment, all worlds, for a run without strata).
    counts:
        ``int64[n_local]`` — in how many of the ``num_worlds`` worlds
        each of ``nodes`` was reached from the source set.  Its sum is
        the total reached-set size over all worlds.
    num_worlds:
        Total number of worlds simulated.
    """

    __slots__ = ("nodes", "stratum_counts", "counts", "num_worlds")

    def __init__(
        self,
        nodes: np.ndarray,
        stratum_counts: np.ndarray,
        num_worlds: int,
    ) -> None:
        self.nodes = nodes
        self.stratum_counts = stratum_counts
        self.counts = stratum_counts.sum(axis=0)
        self.num_worlds = num_worlds


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


def _word_source(rng: np.random.Generator) -> np.random.BitGenerator:
    """*rng*'s bit generator, refused unless it emits 64-bit words.

    Read as uint32 halves, a 32-bit generator's zero-extended raw
    output would make every other coin heads.
    """
    bit_generator = getattr(rng, "bit_generator", rng)
    if not isinstance(bit_generator, _WORD_GENERATORS):
        raise TypeError(
            "the sampling kernel draws its coins from 64-bit generator "
            "words: pass a numpy Generator over PCG64 (default_rng), "
            f"PCG64DXSM, Philox or SFC64, not {type(bit_generator).__name__}"
        )
    return bit_generator


def _coins(
    words: np.random.BitGenerator, coin_max: np.ndarray, size: int
) -> np.ndarray:
    """Packed coins of arcs with thresholds *coin_max* in *size* worlds.

    Coin ``(i, w)`` is the stream's ``(i * size + w)``-th uint32 draw,
    exactly the draw ``Generator.random(dtype=np.float32)`` would turn
    into that coin's uniform, so the coins equal ``uniform < p`` bit
    for bit whenever every call draws an even number of coins.  (An
    odd count leaves the last word's high half unused, where the
    float32 draw would keep it for its next call.)
    """
    count = coin_max.size * size
    # The little-endian view puts each word's low half first on any host.
    draws = (
        words.random_raw((count + 1) // 2)
        .astype("<u8", copy=False)
        .view("<u4")[:count]
        .reshape(coin_max.size, size)
    )
    # Comparing into a buffer whose pad worlds' coins are 0 packs
    # straight to the padded width.
    heads = np.empty((coin_max.size, packed_columns(size) * 8), dtype=bool)
    heads[:, size:] = False
    np.less_equal(draws, coin_max[:, None], out=heads[:, :size])
    return np.packbits(heads, axis=1)


def draw_coins(
    rng: np.random.Generator, plan: ReachPlan, size: int
) -> np.ndarray:
    """One chunk of packed coins for *plan*'s arcs: ``size`` worlds.

    One uint32 draw per (arc, world), heads when at most the arc's
    ``coin_max``, bit-packed: ``uint8[plan.num_arcs,
    packed_columns(size)]``.  Bit for bit the float32 comparison
    ``rng.random((num_arcs, size), dtype=np.float32) < probs_f32``;
    *rng*'s bit generator must emit 64-bit words.
    """
    return _coins(_word_source(rng), plan.coin_max, size)


def _chunk_size(plan: ReachPlan, num_worlds: int) -> int:
    footprint = max(plan.num_nodes, plan.num_arcs, 1)
    chunk = _TARGET_SLOTS // footprint
    return max(_MIN_CHUNK, min(_MAX_CHUNK, chunk, num_worlds))


class _FixedCoins:
    """One chunk's fixed coins: a packed row per :class:`Strata` arc,
    and each plan arc's row index (``-1``: not fixed)."""

    __slots__ = ("rows", "slot")

    def __init__(self, plan: ReachPlan, strata: Strata, segment_of_world):
        present = np.asarray(strata.present, dtype=bool)[segment_of_world]
        self.rows = pack_world_bits(np.ascontiguousarray(present.T)).view(
            np.uint64
        )
        self.slot = np.full(plan.num_arcs, -1, dtype=np.int64)
        self.slot[np.asarray(strata.arcs, dtype=np.int64)] = np.arange(
            len(strata.arcs)
        )

    def apply(self, coins: np.ndarray, arcs=slice(None)) -> None:
        """Overwrite the fixed arcs' rows of *coins*, whose rows are
        the plan arcs *arcs* (default: every arc, in plan order)."""
        slots = self.slot[arcs]
        fixed = slots >= 0
        coins[fixed] = self.rows[slots[fixed]]


def _simulate_chunk(
    plan: ReachPlan,
    source_idx: np.ndarray,
    num_worlds: int,
    words: np.random.BitGenerator,
    max_hops: Optional[int],
    fixed: Optional[_FixedCoins],
) -> Tuple[np.ndarray, int]:
    """Advance *num_worlds* worlds to fixpoint.

    Returns the packed reached bits, ``uint8[n_local,
    packed_columns(num_worlds)]``, and the number of (arc, world)
    coins drawn.  Word column ``b`` of node row ``v`` holds worlds
    ``64b .. 64b+63``, so every bitwise op below advances sixty-four
    worlds at once.  Sources' rows are all ones, pad bits included;
    every coin packs to 0 in the pad worlds, so nothing propagates in
    them, and only the sources' rows carry pad bits.
    """
    visited = np.zeros(
        (plan.num_nodes, packed_columns(num_worlds)), dtype=np.uint8
    )
    if source_idx.size:
        visited[source_idx] = 0xFF
    drawn = 0
    if not source_idx.size or not plan.num_arcs or max_hops == 0:
        return visited, drawn
    # Word views: every bitwise op below works on uint64 words.
    frontier = visited.view(np.uint64).copy()
    unvisited = ~frontier
    # Rows of nodes without in-arcs are never written, so they stay 0.
    new = np.zeros_like(frontier)
    # Nodes with a frontier bit in some world.
    live = np.zeros(plan.num_nodes, dtype=bool)
    live[source_idx] = True
    table = None
    depth = 0
    while max_hops is None or depth < max_hops:
        # Only arcs whose tail has a live frontier bit in *some* world
        # can propagate.  When few do (small reached sets — the
        # subcritical regime), those arcs get fresh coins and their
        # rows are scattered; otherwise every arc's row is gathered
        # against the full table.  Either way each (arc, world) coin
        # is read at most once: a tail is in a world's frontier on one
        # level only.
        active = np.nonzero(live[plan.predecessors])[0]
        if active.size == 0:
            break
        # NOTE: ``frontier`` aliases ``new`` after the first
        # iteration, so the candidate gather (a fancy-index copy)
        # must happen before ``new`` is written.
        if active.size * 8 < plan.num_arcs:
            coins = _coins(words, plan.coin_max[active], num_worlds).view(
                np.uint64
            )
            drawn += active.size * num_worlds
            if fixed is not None:
                fixed.apply(coins, active)
            candidate = frontier[plan.predecessors[active]]
            candidate &= coins
            new[:] = 0
            np.bitwise_or.at(new, plan.targets[active], candidate)
        else:
            if table is None:
                # Arcs in the plan's order (grouped by target), so the
                # reduceat below needs no permutation.
                table = _coins(words, plan.coin_max, num_worlds).view(
                    np.uint64
                )
                drawn += plan.num_arcs * num_worlds
                if fixed is not None:
                    fixed.apply(table)
            candidate = frontier[plan.predecessors]
            candidate &= table
            new[plan.has_in] = np.bitwise_or.reduceat(
                candidate, plan.segment_starts, axis=0
            )
        new &= unvisited
        # A level that reaches nothing leaves no active arc, so the
        # next one stops.
        live = new.any(axis=1)
        # ``new`` lies inside ``unvisited``, so XOR clears exactly it.
        unvisited ^= new
        frontier = new
        depth += 1
    # Written through the word view into the uint8 array returned.
    np.invert(unvisited, out=visited.view(np.uint64))
    return visited, drawn


def sample_reach_batch(
    graph: Union[UncertainGraph, CSRGraph, ReachPlan],
    sources: Sequence[int],
    num_worlds: int,
    rng: np.random.Generator,
    allowed: Optional[Iterable[int]] = None,
    max_hops: Optional[int] = None,
    strata: Optional[Strata] = None,
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
        A ``numpy.random.Generator`` whose bit generator emits 64-bit
        words (``numpy.random.default_rng``'s PCG64, PCG64DXSM, Philox
        or SFC64; anything else, MT19937 included, raises
        ``TypeError``).  The caller owns the state, so successive calls
        continue one deterministic stream.
    allowed:
        The candidate node set sampling is restricted to (the
        candidate-induced subgraph of RQ-tree-MC verification);
        ``None`` samples the whole graph.  Ignored when *graph* is a
        plan, which already fixes the set.
    max_hops:
        Optional hop budget (distance-constrained reachability): level
        ``d`` of the frontier is the set first reached after ``d`` hops,
        so capping the levels is exact.
    strata:
        Optional :class:`Strata` over the plan's arcs; its sizes must
        be positive and add up to *num_worlds*.  The result's
        ``stratum_counts`` then has one row per segment.
    """
    if num_worlds <= 0:
        raise ValueError(f"num_worlds must be positive, got {num_worlds}")
    words = _word_source(rng)
    if isinstance(graph, ReachPlan):
        plan = graph
    else:
        csr = graph if isinstance(graph, CSRGraph) else csr_snapshot(graph)
        plan = ReachPlan(csr, allowed)
    sizes = np.array(
        [num_worlds] if strata is None else strata.sizes, dtype=np.int64
    )
    if sizes.sum() != num_worlds or (sizes < 1).any():
        raise ValueError(
            f"strata sizes {sizes.tolist()} do not split {num_worlds} "
            "worlds into non-empty segments"
        )
    segment_of_world = np.repeat(np.arange(sizes.size), sizes)

    from ..service.metrics import get_registry

    registry = get_registry()
    registry.counter("accel.kernel_calls").inc()
    registry.counter("accel.kernel_worlds").inc(num_worlds)

    source_idx = plan.local_ids(sources)
    stratum_counts = np.zeros((sizes.size, plan.num_nodes), dtype=np.int64)
    chunk = _chunk_size(plan, num_worlds)
    done = 0
    while done < num_worlds:
        fault_point("mc.kernel.chunk")
        registry.counter("accel.kernel_chunks").inc()
        size = min(chunk, num_worlds - done)
        end = done + size
        fixed = None
        if strata is not None and len(strata.arcs):
            fixed = _FixedCoins(plan, strata, segment_of_world[done:end])
        visited, drawn = _simulate_chunk(
            plan, source_idx, size, words, max_hops, fixed
        )
        registry.counter("accel.kernel_coins").inc(drawn)
        reached = visited.view(np.uint64)
        # The segments this chunk overlaps.
        first, last = segment_of_world[done], segment_of_world[end - 1] + 1
        if last - first == 1:
            hits = np.bitwise_count(reached).sum(axis=1, dtype=np.int64)
            # The sources' rows are ones in the pad worlds too.
            hits[source_idx] -= visited.shape[1] * 8 - size
            stratum_counts[first] += hits
        else:
            # One word mask per segment, zero in the pad worlds.
            masks = pack_world_bits(
                segment_of_world[done:end] == np.arange(first, last)[:, None]
            ).view(np.uint64)
            for row, mask in enumerate(masks, start=first):
                stratum_counts[row] += np.bitwise_count(reached & mask).sum(
                    axis=1, dtype=np.int64
                )
        done = end
    return BatchReachResult(plan.nodes, stratum_counts, num_worlds)
