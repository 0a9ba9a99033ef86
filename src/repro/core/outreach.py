"""Outreach-probability upper bound ``U_out`` (paper, Section 4.1).

The outreach probability ``R_out(S, C)`` (Definition 1) is the probability
that the source set ``S ⊆ C`` reaches at least one node outside the
cluster ``C``.  Theorems 1-2 bound it by the *most-likely cut*:

.. math::

    R_out(S, C) \\le U_out(S, C) = 1 - \\exp(-f^*),

where ``f*`` is the max-flow from ``S`` to the cluster's outside boundary
on the graph with capacities ``c(a) = -log(1 - p(a))``.  Observation 3
restricts the computation to the subgraph induced by ``C`` plus its
one-hop outside boundary ``C̄'``, which is what makes candidate
generation fast (the ``ñ, m̃ ≪ n, m`` of Table 1).

This module also provides the *general* upper bound of Theorem 5
(:func:`general_outreach_upper_bound`) used by the index builder, the
Lemma 1 combination rule (:func:`combine_upper_bounds`) used by
multi-source candidate generation, and a flow *witness*
(:func:`outreach_witness`) that proves ``U_out ≥ η`` without solving
Algorithm 1, which is all the single-source walk needs from a cluster
it climbs past.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import EmptySourceSetError, NodeNotFoundError
from ..flow.mincut import multi_terminal_max_flow
from ..flow.network import EPSILON
from ..graph.uncertain import UncertainGraph

__all__ = [
    "OutreachComputation",
    "capacity_of",
    "outreach_upper_bound",
    "outreach_witness",
    "general_outreach_upper_bound",
    "combine_upper_bounds",
]


def _inflate(bound: float) -> float:
    """Nudge a computed upper bound up past float round-off.

    ``U_out`` travels through a log/exp round trip (capacities are
    ``-log(1-p)``, the bound is ``1 - exp(-f*)``), which can land the
    result one ulp *below* the mathematically exact value.  The
    no-false-negative guarantee (Observation 1) requires a true upper
    bound, so every computed bound is inflated by a tiny relative
    epsilon before comparisons against eta.
    """
    return min(1.0, bound * (1.0 + 1e-9) + 1e-12)


def capacity_of(p: float) -> float:
    """Arc capacity ``-log(1 - p)``; ``p = 1`` maps to infinity."""
    if p >= 1.0:
        return math.inf
    return -math.log(1.0 - p)


@dataclass
class OutreachComputation:
    """Result of one Algorithm-1 invocation, with instrumentation.

    Attributes
    ----------
    upper_bound:
        The value ``U_out(S, C)`` (or the cheaper Theorem-5 bound when
        it already fell below the early-accept threshold).
    max_flow:
        The raw max-flow value ``f*`` (``inf`` when ``U_out = 1``;
        ``nan`` when the flow was skipped via the cheap bound).
    subgraph_nodes / subgraph_arcs:
        The ``ñ`` and ``m̃`` of Table 1: the size of the boundary
        subgraph the flow ran on (or would have run on).
    used_flow:
        Whether a max-flow was actually solved.
    """

    upper_bound: float
    max_flow: float
    subgraph_nodes: int
    subgraph_arcs: int
    used_flow: bool = True


def outreach_upper_bound(
    graph: UncertainGraph,
    sources: Sequence[int],
    cluster: "Set[int] | frozenset",
    engine: str = "dinic",
    cheap_accept_below: Optional[float] = None,
) -> OutreachComputation:
    """Algorithm 1: compute ``U_out(S, C)`` via max-flow.

    Parameters
    ----------
    graph:
        The full uncertain graph.
    sources:
        Query sources; must all lie inside *cluster*.
    cluster:
        The cluster ``C`` as a set of node ids.
    engine:
        Max-flow engine name (``"dinic"`` or ``"push_relabel"``).
    cheap_accept_below:
        Optional early-accept threshold (normally the query's ``η``):
        while scanning the boundary, the source-independent Theorem-5
        bound ``Ū_out(C) ≥ U_out(S, C)`` is accumulated, and if it ends
        up below this value the max-flow solve is skipped and the cheap
        bound returned.  Any upper bound below ``η`` certifies the
        cluster (Observation 1), so candidate generation stays sound —
        only the *reported* bound is looser.  Candidate generation
        passes it only when it has no
        :class:`~repro.core.bounds_cache.ClusterBoundsCache`: a
        cache that already returned ``Ū_out(C) ≥ η`` computed the same
        sum the same way, so the early accept could not fire.

    Notes
    -----
    Algorithm 1 builds the subgraph on ``C ∪ C̄'`` where
    ``C̄' = {v ∉ C : ∃ u ∈ C, (u, v) ∈ A}``.  We include exactly the
    arcs with tail in ``C`` (and head in ``C ∪ C̄'``): arcs between two
    boundary nodes or re-entering ``C`` from the boundary cannot carry
    any flow towards the sink (boundary nodes drain straight into the
    dummy sink through infinite-capacity arcs), so dropping them leaves
    ``f*`` unchanged while shrinking ``m̃``.
    """
    source_list = list(dict.fromkeys(sources))
    if not source_list:
        raise EmptySourceSetError()
    for s in source_list:
        if s not in graph:
            raise NodeNotFoundError(s)
        if s not in cluster:
            raise ValueError(f"source {s} must lie inside the cluster")

    # Line 1: the outside boundary C̄' (accumulating the Theorem-5 bound
    # as we go).
    boundary: Set[int] = set()
    arcs: List[Tuple[int, int, float]] = []
    boundary_log_survive = 0.0
    for u in cluster:
        for v, p in graph.successors(u).items():
            if v not in cluster:
                boundary.add(v)
                boundary_log_survive += math.log(max(1.0 - p, 1e-300))
            arcs.append((u, v, p))
    if not boundary:
        # The cluster has no outgoing arcs (e.g. it is the whole node
        # set): nothing outside is ever reachable.
        return OutreachComputation(0.0, 0.0, len(cluster), len(arcs))
    if cheap_accept_below is not None:
        cheap_bound = _inflate(1.0 - math.exp(boundary_log_survive))
        if cheap_bound < cheap_accept_below:
            return OutreachComputation(
                upper_bound=cheap_bound,
                max_flow=math.nan,
                subgraph_nodes=len(cluster) + len(boundary),
                subgraph_arcs=len(arcs),
                used_flow=False,
            )

    # Lines 2-4: relabel C ∪ C̄' densely and capacitate.
    involved = list(cluster) + list(boundary)
    local_of: Dict[int, int] = {node: i for i, node in enumerate(involved)}
    capacitated = [
        (local_of[u], local_of[v], capacity_of(p)) for u, v, p in arcs
    ]

    # Lines 5-6: max-flow from S to C̄' (dummy source/sink reduction).
    flow_value, _, _, _ = multi_terminal_max_flow(
        len(involved),
        capacitated,
        [local_of[s] for s in source_list],
        [local_of[b] for b in boundary],
        engine=engine,
    )
    if math.isinf(flow_value):
        upper = 1.0
    else:
        upper = _inflate(1.0 - math.exp(-flow_value))
    return OutreachComputation(
        upper_bound=upper,
        max_flow=flow_value,
        subgraph_nodes=len(involved),
        subgraph_arcs=len(arcs),
    )


def outreach_witness(
    graph: UncertainGraph,
    source: int,
    cluster: "Set[int] | frozenset",
    eta: float,
) -> Optional[float]:
    """Certify ``U_out({source}, C) ≥ eta`` with a feasible flow, if cheaply.

    Each round is a breadth-first search from *source* over forward
    residual arcs read straight from the adjacency dicts: it expands
    only nodes inside *cluster*, follows an arc only while its capacity
    minus the flow already pushed on it exceeds the flow subsystem's
    ``EPSILON`` (Algorithm 1's network drops arcs at ``EPSILON`` the
    same way), stops at the first node outside *cluster* and pushes
    the path's bottleneck.  The pushed flow ``f`` certifies the lower bound
    ``1 - exp(-f)``, returned as soon as it reaches *eta* (``1.0`` for
    an exit path of ``p = 1`` arcs).  Returns ``None`` when a search
    finds no way out; only then does the caller need Algorithm 1.

    Soundness: a flow that never uses a reverse arc is still a feasible
    ``s → C̄'`` flow in the network Algorithm 1 solves (arcs with tail
    in ``C``, the same capacities), so ``f ≤ f*`` and ``1 - exp(-f) ≤
    U_out``.  Algorithm 1 rejects a cluster when
    ``_inflate(1 - exp(-f*)) ≥ eta``, and ``_inflate`` adds at least
    ``1e-9·eta``, far above the round-off between two float sums of the
    same flow; so Algorithm 1 rejects every cluster certified here, and
    no inflation is applied on this side.
    """
    if source not in cluster:
        raise ValueError(f"source {source} must lie inside the cluster")
    successors = graph.successors
    pushed: Dict[Tuple[int, int], float] = {}
    flow = 0.0
    while True:
        # parent[v] = (u, residual capacity of the arc (u, v)).
        parent: Dict[int, Tuple[int, float]] = {source: (source, math.inf)}
        frontier = [source]
        exit_node = None
        for u in frontier:
            for v, p in successors(u).items():
                if v in parent:
                    continue
                residual = capacity_of(p) - pushed.get((u, v), 0.0)
                if residual <= EPSILON:
                    continue
                parent[v] = (u, residual)
                if v not in cluster:
                    exit_node = v
                    break
                frontier.append(v)
            if exit_node is not None:
                break
        if exit_node is None:
            return None
        path = []
        bottleneck = math.inf
        v = exit_node
        while v != source:
            u, residual = parent[v]
            path.append((u, v))
            bottleneck = min(bottleneck, residual)
            v = u
        if math.isinf(bottleneck):
            return 1.0
        for arc in path:
            pushed[arc] = pushed.get(arc, 0.0) + bottleneck
        flow += bottleneck
        lower = 1.0 - math.exp(-flow)
        if lower >= eta:
            return lower


def general_outreach_upper_bound(
    graph: UncertainGraph, cluster: Iterable[int]
) -> float:
    """Theorem 5: source-independent bound ``Ū_out(C)``.

    ``Ū_out(C) = 1 - Π over outgoing arcs (u, v), u ∈ C, v ∉ C of
    (1 - p(u, v))`` — valid for *every* source subset of ``C``.  The
    index builder minimizes this quantity (through the ratio-cut
    reduction of Theorem 6); it is also a handy cheap screen in tests.
    """
    cluster_set = set(cluster)
    log_survive = 0.0
    for u in cluster_set:
        for v, p in graph.successors(u).items():
            if v not in cluster_set:
                if p >= 1.0:
                    return 1.0
                log_survive += math.log(1.0 - p)
    return 1.0 - math.exp(log_survive)


def combine_upper_bounds(upper_bounds: Iterable[float]) -> float:
    """Lemma 1 / Theorem 3 combination for multi-source candidates.

    ``U_out(S_∪, C_∪) ≤ 1 - Π_i (1 - U_out(S_i, C_i))``: the combined
    bound used to decide when a set of per-cluster traversal cursors may
    stop.
    """
    survive = 1.0
    for u in upper_bounds:
        survive *= 1.0 - u
    return 1.0 - survive
