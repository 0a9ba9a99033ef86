"""Cache of source-independent cluster bounds (Theorem 5).

``Ū_out(C)`` (Theorem 5) depends only on the cluster and the graph —
not on the query — so it can be computed once per cluster and reused
across queries.  Candidate generation consults the cache before doing
any work: a cached ``Ū_out(C) < η`` accepts the cluster immediately,
skipping both the boundary scan and the max-flow solve.  Since the
early-accept already dominates on the *largest* cluster a traversal
touches (the last, most expensive one), the cache removes the single
most expensive scan from every repeat visit to a cluster.

The cache is graph-version-sensitive: any mutation must be followed by
:meth:`ClusterBoundsCache.invalidate` (per cluster) or
:meth:`ClusterBoundsCache.clear`; :meth:`repro.core.engine.RQTreeEngine.
apply` invalidates exactly the clusters whose boundary an update changed.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional

from ..graph.uncertain import UncertainGraph
from .rqtree import ClusterNode

__all__ = ["ClusterBoundsCache"]


class ClusterBoundsCache:
    """Lazily computed ``Ū_out`` per RQ-tree cluster.

    Keys are cluster indices of one fixed tree; pairing the cache with
    another tree requires :meth:`clear`.
    """

    def __init__(self) -> None:
        self._bounds: Dict[int, float] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._bounds)

    def get(self, graph: UncertainGraph, cluster: ClusterNode) -> float:
        """The Theorem-5 bound of *cluster*, computed at most once."""
        cached = self._bounds.get(cluster.index)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        members = cluster.members
        log_survive = 0.0
        for u in members:
            for v, p in graph.successors(u).items():
                if v not in members:
                    log_survive += math.log(max(1.0 - p, 1e-300))
        # Match the query path's conservative inflation (outreach._inflate)
        # so a cache hit can never accept a cluster the direct
        # computation would have rejected.
        bound = min(1.0, (1.0 - math.exp(log_survive)) * (1.0 + 1e-9) + 1e-12)
        self._bounds[cluster.index] = bound
        return bound

    def peek(self, cluster_index: int) -> Optional[float]:
        """The cached bound if present, without computing."""
        return self._bounds.get(cluster_index)

    def invalidate(self, cluster_indices: Iterable[int]) -> None:
        """Drop cached bounds for specific clusters (after arc updates)."""
        for index in cluster_indices:
            self._bounds.pop(index, None)

    def clear(self) -> None:
        """Drop every cached bound (after a tree swap or bulk update)."""
        self._bounds.clear()
