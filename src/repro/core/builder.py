"""RQ-tree construction (paper, Section 6, Algorithm 2).

The builder recursively splits clusters, starting from the full node
set, until every cluster is a singleton.  Each split solves (a
heuristic for) Problem 3 — the balanced ratio-cut objective on weights
``-log(1 - p(a))`` (Theorem 6) — through the multilevel partitioner in
:mod:`repro.partition` (our METIS substitute).

The paper fixes the branching factor to 2 "for simplicity"; this builder
generalizes to any ``branching >= 2`` by recursive bisection inside each
split (k-way splits trade tree height against per-level pruning
granularity — see
``benchmarks/bench_extensions.py::test_branching_factor`` for the
ablation).

Because each level of the recursion touches every node/arc once and the
tree is balanced, index construction costs ``O((n + m) log n)`` and the
resulting tree stores ``O(n log n)`` member ids, matching the paper's
accounting (Section 6, "Index building time" / "Index storage space").

The tree is built once.  Its bounds are computed against the current
graph at query time, so it stays a correct index while the graph
changes (:meth:`repro.core.engine.RQTreeEngine.apply`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Set, Tuple

from ..graph.uncertain import UncertainGraph
from ..partition.bipartition import bisect_uncertain_cluster
from .rqtree import RQTree

__all__ = ["BuildReport", "build_rqtree", "split_cluster"]


@dataclass
class BuildReport:
    """Construction statistics, mirroring Table 5 of the paper."""

    build_seconds: float
    num_clusters: int
    height: int
    storage_bytes: int

    @property
    def storage_megabytes(self) -> float:
        """Index size in MB (Table 5 column "size (MB)")."""
        return self.storage_bytes / (1024 * 1024)


def split_cluster(
    graph: UncertainGraph,
    members: Set[int],
    branching: int,
    max_imbalance: float,
    seed: int,
    strategy: str,
) -> List[Set[int]]:
    """Split *members* into up to *branching* balanced parts.

    Implemented by recursive bisection (the standard reduction from
    k-way to 2-way partitioning): the cluster is halved, then the
    halves are halved again until *branching* parts exist or parts
    become singletons.  For ``branching=2`` this is exactly one call to
    the Problem-3 bisection.
    """
    parts: List[Set[int]] = [set(members)]
    sub_seed = seed
    while len(parts) < branching:
        # Split the largest current part (keeps parts balanced).
        largest_index = max(
            range(len(parts)), key=lambda i: len(parts[i])
        )
        largest = parts[largest_index]
        if len(largest) <= 1:
            break
        first, second = bisect_uncertain_cluster(
            graph,
            sorted(largest),
            max_imbalance=max_imbalance,
            seed=sub_seed,
            strategy=strategy,
        )
        sub_seed = (sub_seed * 16_777_619 + 1) & 0x7FFFFFFF
        parts[largest_index] = first
        parts.append(second)
    return [part for part in parts if part]


def build_rqtree(
    graph: UncertainGraph,
    max_imbalance: float = 0.1,
    seed: int = 0,
    strategy: str = "multilevel",
    branching: int = 2,
    validate: bool = True,
) -> "Tuple[RQTree, BuildReport]":
    """Build an RQ-tree index for *graph* (Algorithm 2).

    Parameters
    ----------
    graph:
        The uncertain graph to index.
    max_imbalance:
        Balance slack passed to the partitioner: each side of every
        bisection holds ``50% ± max_imbalance`` of the cluster.
    seed:
        Seed for the partitioner's randomized phases; builds are
        deterministic given the seed.
    strategy:
        Bisection strategy: ``"multilevel"`` (the paper's METIS-style
        choice) or ``"random"`` (balanced random splits — the ablation
        baseline showing how much the minimum-cut criterion matters).
    branching:
        Children per internal cluster (paper: 2).  Larger values give
        shorter trees whose per-level clusters shrink faster.
    validate:
        Run the tree invariant checker after construction.

    Returns
    -------
    (tree, report):
        The index and its construction statistics.
    """
    if branching < 2:
        raise ValueError(f"branching factor must be >= 2, got {branching}")
    start = time.perf_counter()
    tree = RQTree(graph.num_nodes)
    if graph.num_nodes == 0:
        report = BuildReport(time.perf_counter() - start, 0, 0, 0)
        return tree, report

    # Algorithm 2's repeat-loop, iteratively.
    root_members: Set[int] = set(graph.nodes())
    stack = [(tree.add_cluster(None, root_members), root_members)]
    split_counter = 0
    while stack:
        cluster_index, members = stack.pop()
        if len(members) <= 1:
            continue
        # Derive a per-split seed so sibling splits are decorrelated but
        # the whole build stays reproducible.
        split_seed = (seed * 1_000_003 + split_counter) & 0x7FFFFFFF
        split_counter += 1
        parts = split_cluster(
            graph, members, branching, max_imbalance, split_seed, strategy
        )
        for part in parts:
            child_index = tree.add_cluster(cluster_index, part)
            if len(part) > 1:
                stack.append((child_index, part))

    if validate:
        tree.validate()
    report = BuildReport(
        build_seconds=time.perf_counter() - start,
        num_clusters=tree.num_clusters,
        height=tree.height,
        storage_bytes=tree.storage_size_estimate(),
    )
    return tree, report
