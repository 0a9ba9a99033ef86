"""Candidate generation — the filtering phase (paper, Section 4).

Given a query ``RS(S, η)`` and an RQ-tree, candidate generation returns a
node set ``C*`` guaranteed to contain every true answer (no false
negatives are pruned; Observations 1-2, Theorem 3) while being as small
as the index's ``U_out`` bounds allow.

Three strategies are provided:

* :func:`single_source_candidates` — the bottom-up leaf-to-root walk of
  Section 4.2, stopping at the first cluster with ``U_out({s}, C) < η``
  (a flow witness rejects the clusters it climbs past, so Algorithm 1
  runs only where the walk stops);
* :func:`multi_source_candidates_greedy` — the round-robin multi-cursor
  heuristic of Section 4.3;
* :func:`multi_source_candidates_exact` — the exact optimum of
  Problem 2 via a Pareto-frontier dynamic program over the tree (the
  paper mentions an ``O(|S| n log n)``-flow DP; ours enumerates
  non-dominated (bound, size) combinations, which is exact and
  practical on RQ-trees because each source path contributes at most
  ``height`` clusters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..errors import EmptySourceSetError, InvalidThresholdError, NodeNotFoundError
from ..graph.uncertain import UncertainGraph
from ..resilience.budget import BudgetClock, QueryBudget
from ..resilience.faultinject import fault_point
from .bounds_cache import ClusterBoundsCache
from .outreach import (
    OutreachComputation,
    combine_upper_bounds,
    outreach_upper_bound,
    outreach_witness,
)
from .rqtree import ClusterNode, RQTree

__all__ = [
    "CandidateResult",
    "TraversalStep",
    "single_source_candidates",
    "multi_source_candidates_greedy",
    "multi_source_candidates_exact",
    "generate_candidates",
]


def _check_eta(eta: float) -> float:
    if not isinstance(eta, (int, float)) or math.isnan(eta) or not 0.0 < eta < 1.0:
        raise InvalidThresholdError(eta)
    return float(eta)


@dataclass
class TraversalStep:
    """One cluster evaluation during candidate generation (for explain()).

    ``bound`` is the upper bound that was compared against the stopping
    threshold; ``via`` records how it was obtained (``"cache"``,
    ``"cheap"`` for the inline Theorem-5 scan, ``"flow"`` for a full
    Algorithm-1 max-flow).  A ``"witness"`` step is a rejection that
    :func:`~repro.core.outreach.outreach_witness` certified: its
    ``bound`` is a *lower* bound on ``U_out`` that already reaches
    ``η``.  ``accepted`` marks the cluster that ended the traversal (or,
    multi-source, a cursor's final cluster).
    """

    cluster_index: int
    cluster_size: int
    depth: int
    bound: float
    via: str
    accepted: bool = False


@dataclass
class CandidateResult:
    """Outcome of the candidate-generation phase, with instrumentation.

    Attributes
    ----------
    candidates:
        The candidate node set ``C*`` (always a superset of the true
        answer set).
    clusters_visited:
        Number of tree clusters whose ``U_out`` was evaluated — the
        numerator of the paper's *height ratio* metric (Section 7.4).
    flow_calls:
        Number of max-flow computations performed (flow-witness
        rejections solve none and are not counted).
    final_upper_bound:
        The (combined) ``U_out`` value that allowed the traversal to
        stop (``< η``).
    max_subgraph_nodes / max_subgraph_arcs:
        Largest boundary subgraph any flow ran on — the empirical
        ``ñ`` / ``m̃`` of Table 1.  Witness steps and bounds-cache
        accepts build no subgraph and add nothing to either; a walk's
        clusters are nested, so when Algorithm 1 accepts, its subgraph
        is still the largest of the walk.
    selected_clusters:
        The tree indices of the clusters whose union is the candidate
        set (one for single-source queries).
    degraded / degraded_reason:
        Set when a query budget expired mid-traversal and the walk fell
        back to the root cluster (the whole node set) — still sound
        (never prunes a true answer), just unpruned.
    """

    candidates: Set[int]
    clusters_visited: int
    flow_calls: int
    final_upper_bound: float
    max_subgraph_nodes: int = 0
    max_subgraph_arcs: int = 0
    selected_clusters: List[int] = field(default_factory=list)
    trace: List[TraversalStep] = field(default_factory=list)
    degraded: bool = False
    degraded_reason: Optional[str] = None

    def explain(self) -> str:
        """Human-readable account of the filtering traversal."""
        lines = [
            f"candidate generation: {self.clusters_visited} cluster(s) "
            f"evaluated, {self.flow_calls} max-flow solve(s), "
            f"|C*| = {len(self.candidates)}"
            + (f" [DEGRADED: {self.degraded_reason}]" if self.degraded else "")
        ]
        for step in self.trace:
            marker = " <-- accepted" if step.accepted else ""
            relation = ">=" if step.via == "witness" else "<="
            lines.append(
                f"  depth {step.depth:>3}  |C| = {step.cluster_size:>7}  "
                f"U_out {relation} {step.bound:.4f}  [{step.via}]{marker}"
            )
        return "\n".join(lines)


def _root_fallback(
    tree: RQTree,
    reason: str,
    visited: int,
    flow_calls: int,
    max_nodes: int,
    max_arcs: int,
    trace: List[TraversalStep],
) -> CandidateResult:
    """Degraded-but-sound answer when the budget expires mid-traversal.

    The root cluster (the whole node set) is always a valid candidate
    set — ``U_out(S, N) = 0`` — so falling back to it can never prune a
    true answer; it merely forfeits the pruning the walk was buying.
    """
    root = tree.clusters[tree.root]
    return CandidateResult(
        candidates=set(root.members),
        clusters_visited=visited,
        flow_calls=flow_calls,
        final_upper_bound=0.0,
        max_subgraph_nodes=max_nodes,
        max_subgraph_arcs=max_arcs,
        selected_clusters=[tree.root],
        trace=trace,
        degraded=True,
        degraded_reason=reason,
    )


def single_source_candidates(
    graph: UncertainGraph,
    tree: RQTree,
    source: int,
    eta: float,
    engine: str = "dinic",
    bounds_cache: Optional[ClusterBoundsCache] = None,
    budget: Optional[Union[QueryBudget, BudgetClock]] = None,
) -> CandidateResult:
    """Section 4.2: bottom-up traversal from the leaf of *source*.

    Walks the unique leaf-to-root path, lazily evaluating
    ``U_out({s}, C)`` with Algorithm 1, and stops at the first cluster
    whose bound drops below ``eta``.  The root always qualifies
    (``U_out(S, N) = 0``), so the walk terminates.

    Per cluster, a cached Theorem-5 bound below ``eta`` accepts first;
    otherwise :func:`~repro.core.outreach.outreach_witness` tries to
    prove ``U_out ≥ eta`` with a feasible flow, and the walk climbs on
    when it does.  Algorithm 1 runs only where the witness finds no
    more augmenting paths — in practice the cluster that stops the
    walk.  Algorithm 1 rejects every certified cluster too, so the
    candidates, the selected cluster and the final bound are those of a
    walk that runs Algorithm 1 everywhere.

    With a *budget* whose deadline expires mid-walk, the traversal
    degrades to the root cluster (see :func:`_root_fallback`) instead of
    finishing the climb.
    """
    eta = _check_eta(eta)
    if source not in graph:
        raise NodeNotFoundError(source)
    clock = BudgetClock.ensure(budget)
    visited = 0
    flow_calls = 0
    max_nodes = 0
    max_arcs = 0
    trace: List[TraversalStep] = []
    for cluster in tree.path_to_root(source):
        if clock is not None and clock.expired():
            return _root_fallback(
                tree, "deadline expired during candidate generation",
                visited, flow_calls, max_nodes, max_arcs, trace,
            )
        visited += 1
        if bounds_cache is not None:
            # Source-independent Theorem-5 bound, computed once per
            # cluster across all queries.  A cached accept builds no
            # boundary subgraph, so it adds nothing to ñ / m̃.
            cached = bounds_cache.get(graph, cluster)
            if cached < eta:
                trace.append(TraversalStep(
                    cluster.index, cluster.size, cluster.depth,
                    cached, "cache", accepted=True,
                ))
                return CandidateResult(
                    candidates=set(cluster.members),
                    clusters_visited=visited,
                    flow_calls=flow_calls,
                    final_upper_bound=cached,
                    max_subgraph_nodes=max_nodes,
                    max_subgraph_arcs=max_arcs,
                    selected_clusters=[cluster.index],
                    trace=trace,
                )
        certified = outreach_witness(graph, source, cluster.members, eta)
        if certified is not None:
            trace.append(TraversalStep(
                cluster.index, cluster.size, cluster.depth,
                certified, "witness",
            ))
            continue
        computation = outreach_upper_bound(
            graph,
            [source],
            cluster.members,
            engine=engine,
            cheap_accept_below=eta if bounds_cache is None else None,
        )
        if computation.used_flow:
            flow_calls += 1
        max_nodes = max(max_nodes, computation.subgraph_nodes)
        max_arcs = max(max_arcs, computation.subgraph_arcs)
        accepted = computation.upper_bound < eta
        trace.append(TraversalStep(
            cluster.index, cluster.size, cluster.depth,
            computation.upper_bound,
            "flow" if computation.used_flow else "cheap",
            accepted=accepted,
        ))
        if accepted:
            return CandidateResult(
                candidates=set(cluster.members),
                clusters_visited=visited,
                flow_calls=flow_calls,
                final_upper_bound=computation.upper_bound,
                max_subgraph_nodes=max_nodes,
                max_subgraph_arcs=max_arcs,
                selected_clusters=[cluster.index],
                trace=trace,
            )
    raise AssertionError(
        "unreachable: the root cluster always has U_out = 0 < eta"
    )


@dataclass
class _Cursor:
    """One bottom-up traversal cursor of the greedy multi-source heuristic."""

    cluster: ClusterNode
    sources: Set[int]
    bound: float  # U_out(cluster ∩ S, cluster)


def multi_source_candidates_greedy(
    graph: UncertainGraph,
    tree: RQTree,
    sources: Sequence[int],
    eta: float,
    engine: str = "dinic",
    bounds_cache: Optional[ClusterBoundsCache] = None,
    budget: Optional[Union[QueryBudget, BudgetClock]] = None,
) -> CandidateResult:
    """Section 4.3: round-robin multi-cursor heuristic.

    One cursor per source starts at its leaf; cursors sharing a cluster
    merge.  In round-robin order each cursor moves to its parent cluster
    and recomputes ``U_out(C_i ∩ S, C_i)``; after every move the
    stopping condition of Theorem 3,
    ``1 - Π_i (1 - U_out(C_i ∩ S, C_i)) < η``, is tested.  The returned
    candidate set is the union of the cursors' clusters.

    With a *budget* whose deadline expires before the stopping condition
    holds, the traversal degrades to the root cluster — stopping with
    the cursors' current union would be *unsound* (the Theorem-3 bound
    has not yet dropped below ``eta``, so answers could hide outside).
    """
    eta = _check_eta(eta)
    source_list = list(dict.fromkeys(sources))
    if not source_list:
        raise EmptySourceSetError()
    for s in source_list:
        if s not in graph:
            raise NodeNotFoundError(s)
    clock = BudgetClock.ensure(budget)

    visited = 0
    flow_calls = 0
    max_nodes = 0
    max_arcs = 0

    per_cursor_accept = 1.0 - (1.0 - eta) ** 0.5

    trace: List[TraversalStep] = []

    def evaluate(cluster: ClusterNode, members_sources: Set[int]) -> float:
        nonlocal visited, flow_calls, max_nodes, max_arcs
        visited += 1
        if bounds_cache is not None:
            cached = bounds_cache.get(graph, cluster)
            if cached < per_cursor_accept:
                trace.append(TraversalStep(
                    cluster.index, cluster.size, cluster.depth,
                    cached, "cache",
                ))
                return cached
        computation = outreach_upper_bound(
            graph,
            sorted(members_sources),
            cluster.members,
            engine=engine,
            cheap_accept_below=(
                per_cursor_accept if bounds_cache is None else None
            ),
        )
        if computation.used_flow:
            flow_calls += 1
        max_nodes = max(max_nodes, computation.subgraph_nodes)
        max_arcs = max(max_arcs, computation.subgraph_arcs)
        trace.append(TraversalStep(
            cluster.index, cluster.size, cluster.depth,
            computation.upper_bound,
            "flow" if computation.used_flow else "cheap",
        ))
        return computation.upper_bound

    # Initialize one cursor per source at its leaf, merging duplicates.
    cursors: Dict[int, _Cursor] = {}
    for s in source_list:
        leaf = tree.clusters[tree.leaf_of(s)]
        if leaf.index in cursors:
            cursors[leaf.index].sources.add(s)
        else:
            cursors[leaf.index] = _Cursor(leaf, {s}, 0.0)
    for cursor in cursors.values():
        cursor.bound = evaluate(cursor.cluster, cursor.sources)

    def combined_bound() -> float:
        return combine_upper_bounds(c.bound for c in cursors.values())

    while combined_bound() >= eta:
        if clock is not None and clock.expired():
            return _root_fallback(
                tree, "deadline expired during candidate generation",
                visited, flow_calls, max_nodes, max_arcs, trace,
            )
        # Round-robin: advance the shallowest-progress cursor first so all
        # cursors climb at a similar rate (the paper's parallel traversal);
        # ties broken towards the largest bound (the weakest link).
        movable = [c for c in cursors.values() if c.cluster.parent is not None]
        if not movable:
            break  # every cursor is at the root; combined bound is 0
        cursor = max(movable, key=lambda c: (c.cluster.depth, c.bound))
        parent = tree.clusters[cursor.cluster.parent]
        # Remove this cursor, then merge into an existing cursor on the
        # parent cluster if one exists.
        del cursors[cursor.cluster.index]
        if parent.index in cursors:
            target = cursors[parent.index]
            target.sources |= cursor.sources
            target.bound = evaluate(parent, target.sources)
        else:
            # Other cursors positioned strictly below the parent whose
            # cluster is *nested inside* the parent must merge too, or the
            # union would double-count their sources in the product.
            absorbed = [
                c
                for c in cursors.values()
                if c.cluster.members <= parent.members
            ]
            merged_sources = set(cursor.sources)
            for other in absorbed:
                merged_sources |= other.sources
                del cursors[other.cluster.index]
            new_cursor = _Cursor(parent, merged_sources, 0.0)
            new_cursor.bound = evaluate(parent, merged_sources)
            cursors[parent.index] = new_cursor

    union: Set[int] = set()
    selected = sorted(c.cluster.index for c in cursors.values())
    for cursor in cursors.values():
        union |= cursor.cluster.members
    for step in trace:
        if step.cluster_index in selected:
            step.accepted = True
    return CandidateResult(
        candidates=union,
        clusters_visited=visited,
        flow_calls=flow_calls,
        final_upper_bound=combined_bound(),
        max_subgraph_nodes=max_nodes,
        max_subgraph_arcs=max_arcs,
        selected_clusters=selected,
        trace=trace,
    )


def multi_source_candidates_exact(
    graph: UncertainGraph,
    tree: RQTree,
    sources: Sequence[int],
    eta: float,
    engine: str = "dinic",
    max_frontier: int = 256,
    budget: Optional[Union[QueryBudget, BudgetClock]] = None,
) -> CandidateResult:
    """Problem 2 solved exactly by Pareto dynamic programming.

    For every tree cluster ``C`` containing at least one source, two
    families of solutions cover ``C``'s sources: take ``C`` itself
    (cost ``-log(1 - U_out(C ∩ S, C))``, size ``|C|``), or combine
    solutions of the source-containing children.  The DP keeps, per
    cluster, the set of non-dominated ``(cost, size)`` pairs; at the
    root, the cheapest *size* with ``cost < -log(1 - η)`` wins and the
    chosen clusters are recovered by backtracking.

    ``max_frontier`` caps the per-cluster Pareto set (dropping
    highest-cost entries first); with the default the DP is exact on all
    RQ-trees we build (frontier sizes stay tiny because only clusters on
    the ``|S|`` leaf paths participate).
    """
    eta = _check_eta(eta)
    source_list = list(dict.fromkeys(sources))
    if not source_list:
        raise EmptySourceSetError()
    for s in source_list:
        if s not in graph:
            raise NodeNotFoundError(s)
    source_set = set(source_list)
    clock = BudgetClock.ensure(budget)

    visited = 0
    flow_calls = 0
    max_nodes = 0
    max_arcs = 0

    budget = -math.log(1.0 - eta)

    # Clusters on the leaf-to-root paths of the sources.
    relevant: Set[int] = set()
    for s in source_list:
        for cluster in tree.path_to_root(s):
            relevant.add(cluster.index)

    # Option = (cost, size, chosen cluster indices).
    Option = Tuple[float, int, Tuple[int, ...]]
    table: Dict[int, List[Option]] = {}

    def pareto(options: List[Option]) -> List[Option]:
        options.sort(key=lambda o: (o[0], o[1]))
        kept: List[Option] = []
        best_size = math.inf
        for cost, size, chosen in options:
            if size < best_size:
                kept.append((cost, size, chosen))
                best_size = size
        return kept[:max_frontier]

    # Process relevant clusters deepest-first so children precede parents.
    for index in sorted(relevant, key=lambda i: -tree.clusters[i].depth):
        if clock is not None and clock.expired():
            return _root_fallback(
                tree, "deadline expired during candidate generation",
                visited, flow_calls, max_nodes, max_arcs, [],
            )
        cluster = tree.clusters[index]
        cluster_sources = source_set & cluster.members
        # Option A: take the cluster itself.
        nonlocal_sources = sorted(cluster_sources)
        computation = outreach_upper_bound(
            graph, nonlocal_sources, cluster.members, engine=engine
        )
        visited += 1
        flow_calls += 1  # the exact DP always needs the tight bound
        max_nodes = max(max_nodes, computation.subgraph_nodes)
        max_arcs = max(max_arcs, computation.subgraph_arcs)
        if computation.upper_bound >= 1.0:
            take_cost = math.inf
        else:
            take_cost = -math.log(1.0 - computation.upper_bound)
        options: List[Option] = [(take_cost, cluster.size, (index,))]
        # Option B: combine the source-containing children.
        child_tables = [
            table[c] for c in cluster.children if c in relevant and c in table
        ]
        if child_tables and sum(
            len(source_set & tree.clusters[c].members)
            for c in cluster.children
            if c in relevant
        ) == len(cluster_sources):
            combined: List[Option] = [(0.0, 0, ())]
            for child_options in child_tables:
                combined = [
                    (c1 + c2, s1 + s2, t1 + t2)
                    for c1, s1, t1 in combined
                    for c2, s2, t2 in child_options
                ]
                combined = pareto(combined)
            options.extend(combined)
        table[index] = pareto(options)

    root_options = table[tree.root]
    feasible = [o for o in root_options if o[0] < budget]
    if not feasible:
        # The root-only option has cost 0 (U_out(root) = 0) and is always
        # feasible; reaching here indicates an internal error.
        raise AssertionError("root option must be feasible")
    best = min(feasible, key=lambda o: (o[1], o[0]))
    union: Set[int] = set()
    for cluster_index in best[2]:
        union |= tree.clusters[cluster_index].members
    combined_upper = 1.0 - math.exp(-best[0]) if best[0] < math.inf else 1.0
    return CandidateResult(
        candidates=union,
        clusters_visited=visited,
        flow_calls=flow_calls,
        final_upper_bound=combined_upper,
        max_subgraph_nodes=max_nodes,
        max_subgraph_arcs=max_arcs,
        selected_clusters=sorted(best[2]),
    )


def generate_candidates(
    graph: UncertainGraph,
    tree: RQTree,
    sources: Sequence[int],
    eta: float,
    engine: str = "dinic",
    multi_source_mode: str = "greedy",
    bounds_cache: Optional[ClusterBoundsCache] = None,
    budget: Optional[Union[QueryBudget, BudgetClock]] = None,
) -> CandidateResult:
    """Dispatch to the appropriate candidate-generation strategy.

    Single-node source sets use the Section 4.2 walk; larger sets use
    the greedy heuristic (default) or the exact DP
    (``multi_source_mode="exact"``).  *budget* (a
    :class:`~repro.resilience.QueryBudget` or a running clock shared
    with the rest of the query) bounds the traversal's wall time; on
    expiry the result degrades to the root cluster, which is sound but
    unpruned.
    """
    fault_point("candidates.generate")
    source_list = list(dict.fromkeys(sources))
    if not source_list:
        raise EmptySourceSetError()
    if len(source_list) == 1:
        result = single_source_candidates(
            graph, tree, source_list[0], eta,
            engine=engine, bounds_cache=bounds_cache, budget=budget,
        )
    elif multi_source_mode == "greedy":
        result = multi_source_candidates_greedy(
            graph, tree, source_list, eta,
            engine=engine, bounds_cache=bounds_cache, budget=budget,
        )
    elif multi_source_mode == "exact":
        result = multi_source_candidates_exact(
            graph, tree, source_list, eta, engine=engine, budget=budget
        )
    else:
        raise ValueError(
            f"unknown multi_source_mode {multi_source_mode!r}; "
            "expected 'greedy' or 'exact'"
        )
    _record_candidate_metrics(result)
    return result


def _record_candidate_metrics(result: CandidateResult) -> None:
    """Count one filtering pass in the service metrics registry."""
    from ..service.metrics import get_registry

    registry = get_registry()
    registry.counter("candidates.passes").inc()
    registry.counter("candidates.flow_calls").inc(result.flow_calls)
    registry.counter("candidates.clusters_visited").inc(
        result.clusters_visited
    )
    registry.counter("candidates.witness_rejections").inc(
        sum(1 for step in result.trace if step.via == "witness")
    )
