"""Partition-aligned shard planning.

A shard plan splits the node set into ``K`` disjoint parts by applying
the RQ-tree's own balanced bisection (:func:`bisect_uncertain_cluster`,
paper Section 6 / Theorem 6) recursively — the same objective that makes
RQ-tree clusters good query units (few, unlikely arcs crossing the cut)
makes them good *distribution* units: a low-weight frontier means most
reliability mass stays inside a shard, so per-shard engines answer most
of each query locally and the cross-shard refinement pass stays small.

The plan is pure data: which shard owns each node, the per-shard node
lists, and the *frontier* — the arcs whose endpoints live in different
shards.  Everything downstream (per-shard engine construction in
:mod:`repro.shard.runtime`, scatter-gather routing in
:mod:`repro.shard.engine`) derives from it deterministically, seeded
through :mod:`repro.seeding` so the same ``(graph, shards, seed)``
always yields the same plan in every process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple

from ..errors import PartitionError
from ..graph.uncertain import UncertainGraph, WeightedArc
from ..partition.bipartition import bisect_uncertain_cluster
from ..seeding import derive_seed

__all__ = ["ShardPlan", "build_shard_plan"]


@dataclass(frozen=True)
class ShardPlan:
    """The K-way partition a sharded engine is built on.

    Attributes
    ----------
    num_shards:
        Number of parts ``K``.
    shard_of:
        ``shard_of[node]`` is the id of the shard owning *node*.
    shard_nodes:
        Per-shard sorted tuples of global node ids; together they
        partition ``0 .. n-1``.  A node's *local* id inside its shard is
        its index in this tuple (the relabelling
        :meth:`SubgraphView.materialize` applies).
    local_of:
        ``local_of[node]`` is *node*'s local id: its index in
        ``shard_nodes[shard_of[node]]``.
    frontier_arcs:
        Every arc ``(u, v, p)`` whose endpoints belong to different
        shards.  These are the arcs no per-shard engine sees; the
        gateway's refinement pass is what accounts for them.
    num_arcs:
        Arc count of the graph the plan was built from (for the
        frontier fraction).
    seed:
        Root seed the recursive bisection was derived from.
    """

    num_shards: int
    shard_of: Tuple[int, ...]
    shard_nodes: Tuple[Tuple[int, ...], ...]
    local_of: Tuple[int, ...]
    frontier_arcs: Tuple[WeightedArc, ...]
    num_arcs: int
    seed: int

    @property
    def num_nodes(self) -> int:
        return len(self.shard_of)

    @property
    def frontier_fraction(self) -> float:
        """Fraction of all arcs that cross shard boundaries."""
        if self.num_arcs == 0:
            return 0.0
        return len(self.frontier_arcs) / self.num_arcs

    def owner(self, node: int) -> int:
        """The shard id owning *node*."""
        return self.shard_of[node]

    def describe(self) -> str:
        """One-line human-readable summary (CLI / logs)."""
        sizes = ", ".join(str(len(part)) for part in self.shard_nodes)
        return (
            f"{self.num_shards} shard(s) of sizes [{sizes}]; "
            f"{len(self.frontier_arcs)}/{self.num_arcs} arcs "
            f"({self.frontier_fraction:.1%}) on the frontier"
        )


def _split(
    graph: UncertainGraph,
    nodes: Sequence[int],
    k: int,
    seed: int,
    max_imbalance: float,
    strategy: str,
    parts: List[List[int]],
    counter: List[int],
) -> None:
    """Recursively bisect *nodes* into *k* parts, appending to *parts*."""
    if k == 1:
        parts.append(sorted(nodes))
        return
    split_seed = derive_seed(seed, "shard.plan", counter[0])
    counter[0] += 1
    left, right = bisect_uncertain_cluster(
        graph,
        sorted(nodes),
        max_imbalance=max_imbalance,
        seed=split_seed,
        strategy=strategy,
    )
    # The side with more nodes hosts the larger sub-count; ties broken
    # towards `left` so the recursion stays deterministic.
    k_small, k_large = k // 2, k - k // 2
    if len(left) >= len(right):
        large, small = left, right
    else:
        large, small = right, left
    if len(small) < k_small or len(large) < k_large:
        raise PartitionError(
            f"cannot split a {len(nodes)}-node cluster into {k} shards: "
            f"bisection produced sides of {len(small)} and {len(large)} "
            "nodes; use fewer shards"
        )
    _split(graph, large, k_large, seed, max_imbalance, strategy,
           parts, counter)
    _split(graph, small, k_small, seed, max_imbalance, strategy,
           parts, counter)


def build_shard_plan(
    graph: UncertainGraph,
    shards: int,
    seed: int = 0,
    max_imbalance: float = 0.1,
    strategy: str = "multilevel",
) -> ShardPlan:
    """Split *graph* into *shards* partition-aligned parts.

    The node set is bisected recursively with the RQ-tree's own
    balanced-cut machinery; every recursion level derives its own seed
    via :func:`repro.seeding.derive_seed` under the ``"shard.plan"``
    namespace, so plans are reproducible across processes.  ``K`` need
    not be a power of two — odd counts split as ``ceil(K/2)`` /
    ``floor(K/2)``, with the larger node side carrying the larger shard
    count (shard sizes are then uneven by up to ~2x, which the
    scatter-gather planner tolerates).

    Raises :class:`PartitionError` for an empty graph, ``shards < 1``,
    or ``shards > n``.
    """
    if shards < 1:
        raise PartitionError(f"shard count must be >= 1, got {shards}")
    n = graph.num_nodes
    if n == 0:
        raise PartitionError("cannot shard an empty graph")
    if shards > n:
        raise PartitionError(
            f"cannot split {n} node(s) into {shards} shards"
        )

    parts: List[List[int]] = []
    if shards == 1:
        parts.append(list(range(n)))
    else:
        _split(
            graph, range(n), shards, seed, max_imbalance, strategy,
            parts, counter=[0],
        )
    # Order shards by their smallest member so the numbering is a
    # property of the partition, not of the recursion shape.
    parts.sort(key=lambda part: part[0])

    shard_of = [0] * n
    local_of = [0] * n
    for shard_id, members in enumerate(parts):
        for index, node in enumerate(members):
            shard_of[node] = shard_id
            local_of[node] = index

    frontier: List[WeightedArc] = []
    if shards > 1:
        for u, v, p in graph.arcs():
            if shard_of[u] != shard_of[v]:
                frontier.append((u, v, p))

    covered: Set[int] = set()
    for members in parts:
        covered.update(members)
    if len(covered) != n:  # pragma: no cover - internal invariant
        raise PartitionError(
            "shard plan does not partition the node set "
            f"({len(covered)} of {n} nodes covered)"
        )

    return ShardPlan(
        num_shards=shards,
        shard_of=tuple(shard_of),
        shard_nodes=tuple(tuple(part) for part in parts),
        local_of=tuple(local_of),
        frontier_arcs=tuple(frontier),
        num_arcs=graph.num_arcs,
        seed=seed,
    )
