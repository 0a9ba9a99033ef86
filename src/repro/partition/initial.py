"""Initial bisection of the coarsest graph (multilevel phase 2).

Two strategies are combined and the better result (by cut weight subject
to the balance constraint) wins:

* **greedy graph growing** (the METIS default): BFS-grow a region from a
  random seed, always absorbing the frontier node with the largest
  connection weight into the region, until half the total node weight is
  absorbed; repeated from several seeds;
* **spectral bisection**: sign-split around the median of the Fiedler
  vector of the weighted Laplacian (numpy dense eigendecomposition —
  the coarsest graph is small by construction, so this is cheap).
"""

from __future__ import annotations

import heapq
import random
from typing import List, Optional, Tuple

import numpy as np

from .wgraph import WeightedUndirectedGraph

__all__ = ["greedy_growing_bisection", "spectral_bisection", "initial_bisection"]


def _balance_ok(
    graph: WeightedUndirectedGraph, side: List[bool], max_imbalance: float
) -> bool:
    total = graph.total_node_weight()
    weight_true = sum(
        graph.node_weight[u] for u in range(graph.num_nodes) if side[u]
    )
    lo = total * (0.5 - max_imbalance)
    hi = total * (0.5 + max_imbalance)
    return lo <= weight_true <= hi


def greedy_growing_bisection(
    graph: WeightedUndirectedGraph,
    rng: random.Random,
    num_seeds: int = 4,
) -> List[bool]:
    """Best-of-*num_seeds* greedy region growing.

    Returns the side indicator of the grown region.  Always produces a
    bisection with region weight as close as possible to half the total
    (the last absorbed node may overshoot slightly, as in METIS).
    """
    n = graph.num_nodes
    total = graph.total_node_weight()
    target = total / 2.0
    best_side: Optional[List[bool]] = None
    best_cut = float("inf")
    seeds = [rng.randrange(n) for _ in range(max(1, num_seeds))]
    for seed in seeds:
        side = [False] * n
        side[seed] = True
        weight = graph.node_weight[seed]
        # Max-heap of frontier nodes by connection weight into the region.
        gain = {v: w for v, w in graph.adjacency[seed].items()}
        heap = [(-w, v) for v, w in gain.items()]
        heapq.heapify(heap)
        while weight < target:
            grown = False
            while heap:
                neg_w, v = heapq.heappop(heap)
                if side[v] or gain.get(v, None) != -neg_w:
                    continue  # stale entry
                side[v] = True
                weight += graph.node_weight[v]
                for nbr, w in graph.adjacency[v].items():
                    if not side[nbr]:
                        gain[nbr] = gain.get(nbr, 0.0) + w
                        heapq.heappush(heap, (-gain[nbr], nbr))
                grown = True
                break
            if not grown:
                # Disconnected remainder: jump to an arbitrary outside node.
                outside = next((v for v in range(n) if not side[v]), None)
                if outside is None:
                    break
                side[outside] = True
                weight += graph.node_weight[outside]
                for nbr, w in graph.adjacency[outside].items():
                    if not side[nbr]:
                        gain[nbr] = gain.get(nbr, 0.0) + w
                        heapq.heappush(heap, (-gain[nbr], nbr))
        cut = graph.cut_weight(side)
        if cut < best_cut and any(side) and not all(side):
            best_cut = cut
            best_side = side
    if best_side is None:  # pathological (n <= 1); split arbitrarily
        best_side = [u < n // 2 for u in range(n)]
    return best_side


def spectral_bisection(
    graph: WeightedUndirectedGraph,
) -> Optional[List[bool]]:
    """Fiedler-vector sign split (weighted by node weight at the median).

    Returns ``None`` when the graph is too small for a meaningful
    spectrum.
    """
    n = graph.num_nodes
    if n < 4:
        return None
    laplacian = np.zeros((n, n))
    for u in range(n):
        for v, w in graph.adjacency[u].items():
            laplacian[u, v] -= w
            laplacian[u, u] += w
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(laplacian)
    except np.linalg.LinAlgError:  # pragma: no cover - defensive
        return None
    # Fiedler vector: eigenvector of the second-smallest eigenvalue.
    fiedler = eigenvectors[:, 1]
    # Split at the weighted median so the halves are weight-balanced.
    order = sorted(range(n), key=lambda u: fiedler[u])
    total = graph.total_node_weight()
    side = [False] * n
    weight = 0
    for u in order:
        if weight >= total / 2.0:
            break
        side[u] = True
        weight += graph.node_weight[u]
    if not any(side) or all(side):
        return None
    return side


def initial_bisection(
    graph: WeightedUndirectedGraph,
    rng: random.Random,
    max_imbalance: float,
) -> List[bool]:
    """Pick the best feasible bisection among the available strategies."""
    candidates: List[List[bool]] = [greedy_growing_bisection(graph, rng)]
    spectral = spectral_bisection(graph)
    if spectral is not None:
        candidates.append(spectral)

    def score(side: List[bool]) -> Tuple[int, float]:
        # Feasible (balanced) bisections sort before infeasible ones;
        # ties broken by cut weight.
        feasible = 0 if _balance_ok(graph, side, max_imbalance) else 1
        return (feasible, graph.cut_weight(side))

    return min(candidates, key=score)
