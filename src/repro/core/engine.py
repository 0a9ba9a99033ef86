"""The query engine facade: RQ-tree + filtering + verification.

:class:`RQTreeEngine` bundles an uncertain graph with its RQ-tree index
and exposes the paper's two query-evaluation strategies:

* ``method="lb"`` — **RQ-tree-LB**: candidate generation followed by the
  most-likely-path lower-bound verification (perfect precision, no
  sampling; Section 5.1);
* ``method="mc"`` — **RQ-tree-MC**: candidate generation followed by
  Monte-Carlo verification on the candidate subgraph (better recall;
  Section 5.2).

Every query returns a :class:`QueryResult` carrying the answer set plus
the instrumentation the paper's evaluation reports: per-phase wall times,
the *height ratio* and *candidate ratio* pruning metrics of Section 7.4,
and the boundary-subgraph sizes of Table 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

from ..errors import EmptySourceSetError
from ..estimators import (
    AUTO,
    EstimateRequest,
    PlanDecision,
    PortfolioConfig,
    QueryPlanner,
    get_estimator,
    run_estimate,
    validate_method,
)
from ..graph.uncertain import UncertainGraph
from ..resilience.budget import UNVERIFIED, QueryBudget
from .builder import BuildReport, build_rqtree
from .bounds_cache import ClusterBoundsCache
from .candidates import CandidateResult, generate_candidates
from .rqtree import RQTree

__all__ = ["QueryResult", "RQTreeEngine"]


@dataclass
class QueryResult:
    """Answer and instrumentation of one reliability-search query."""

    nodes: Set[int]
    eta: float
    sources: List[int]
    method: str
    candidate_result: CandidateResult
    candidate_seconds: float
    verification_seconds: float
    tree_height: int
    num_graph_nodes: int

    @property
    def total_seconds(self) -> float:
        """End-to-end query time (candidate generation + verification)."""
        return self.candidate_seconds + self.verification_seconds

    #: Depth (distance from the root) of the shallowest cluster selected
    #: by candidate generation; 0 means some cursor climbed to the root.
    min_selected_depth: int = 0

    #: Per-candidate verification statuses (``confirmed`` / ``rejected``
    #: / ``unverified-candidate``).  ``nodes`` is exactly the confirmed
    #: set; unverified entries appear only in budgeted queries.
    statuses: Dict[int, str] = field(default_factory=dict)

    #: True when a query budget forced a partial answer: the deadline
    #: expired (candidate generation fell back to the root, or
    #: verification left candidates undecided) or the candidate-subgraph
    #: cap left candidates unscreened.  The answer set is still sound —
    #: every confirmed node satisfies the query at the budget's
    #: confidence — it may just be incomplete.
    degraded: bool = False
    degraded_reason: Optional[str] = None

    #: Worlds actually sampled by MC verification (0 for "lb"/"lb+").
    worlds_used: int = 0

    #: Fraction of candidates that received a definitive verdict
    #: (1.0 for unbudgeted queries).
    achieved_confidence: float = 1.0

    #: Shards whose answer for *this query* arrived only after the
    #: supervisor respawned the worker holding it (sharded engine with
    #: supervision only; see :mod:`repro.shard.supervisor`).  Non-zero
    #: means the query survived a worker crash without degrading.
    shards_recovered: int = 0

    #: The estimator that actually verified the batch.  Equals
    #: ``method`` for explicit methods unless the estimator fell back
    #: (e.g. ``exact`` past its treewidth cap runs seeded ``mc``);
    #: for ``method="auto"`` it is the planner's choice.
    estimator: str = ""

    #: Why this estimator ran: the planner's decision rationale for
    #: ``auto``, an "explicit method" note otherwise, with any fallback
    #: annotation appended.
    planner_reason: Optional[str] = None

    #: Per-node reliability estimates / bounds where the estimator
    #: produces them (frequencies for samplers, path bounds for lb,
    #: exact values for exact); empty otherwise.
    estimates: Dict[int, float] = field(default_factory=dict)

    #: Graph epoch this query was answered against (the live update
    #: plane's published-generation counter; 0 for a frozen graph).
    #: Under :mod:`repro.live` a query is admitted at one epoch and
    #: served against exactly that epoch's snapshot — this field is the
    #: proof, and the ``quality`` wire block surfaces it.
    epoch: int = 0

    @property
    def unverified(self) -> Set[int]:
        """Candidates the budget ran out on (empty when not degraded)."""
        return {n for n, s in self.statuses.items() if s == UNVERIFIED}

    @property
    def height_ratio(self) -> float:
        """How far up the tree candidate generation had to climb.

        The paper's Section 7.4 metric: the number of tree levels
        traversed over the total height.  A query whose qualifying
        cluster sits just above the leaves scores near ``1/height``;
        one that climbed to the root scores 1.  For multi-source
        queries the *highest* cursor defines the ratio (the paper's
        Table 7 values rise towards 1 as source sets spread).
        """
        if self.tree_height == 0:
            return 0.0
        climbed = self.tree_height - self.min_selected_depth + 1
        return min(1.0, max(0.0, climbed / (self.tree_height + 1)))

    def explain(self) -> str:
        """A human-readable account of how this query was answered.

        Shows the candidate-generation traversal (clusters visited,
        the bound at each, how it was computed, where it stopped) and
        the verification outcome — the query-plan view of the paper's
        two-phase pipeline.
        """
        lines = [
            f"RS(S={sorted(self.sources)}, eta={self.eta}) "
            f"via rq-tree-{self.method}",
            self.candidate_result.explain(),
            (
                f"verification [{self.method}]: kept {len(self.nodes)} of "
                f"{len(self.candidate_result.candidates)} candidates "
                f"in {self.verification_seconds * 1000:.2f} ms"
            ),
        ]
        if self.degraded:
            lines.append(
                f"DEGRADED: {self.degraded_reason or 'budget exhausted'} "
                f"({len(self.unverified)} unverified candidate(s), "
                f"achieved confidence {self.achieved_confidence:.0%})"
            )
        return "\n".join(lines)

    @property
    def candidate_ratio(self) -> float:
        """Candidate-set size over graph size (paper, Section 7.4)."""
        if self.num_graph_nodes == 0:
            return 0.0
        return len(self.candidate_result.candidates) / self.num_graph_nodes


class RQTreeEngine:
    """Reliability-search query engine backed by an RQ-tree index.

    Build an engine either from a pre-built tree or directly from a
    graph (the index is constructed on the spot)::

        engine = RQTreeEngine.build(graph, seed=7)
        result = engine.query([source], eta=0.6)          # RQ-tree-LB
        result = engine.query([source], eta=0.6, method="mc")
    """

    def __init__(
        self,
        graph: UncertainGraph,
        tree: RQTree,
        build_report: Optional[BuildReport] = None,
        flow_engine: str = "dinic",
        planner_config: Optional[PortfolioConfig] = None,
    ) -> None:
        if tree.num_graph_nodes != graph.num_nodes:
            raise ValueError(
                "index and graph disagree on the number of nodes: "
                f"{tree.num_graph_nodes} vs {graph.num_nodes}"
            )
        self.graph = graph
        self.tree = tree
        self.build_report = build_report
        self.flow_engine = flow_engine
        # Source-independent Theorem-5 bounds, shared across queries.
        # Mutate the graph through apply(), which invalidates them.
        self.bounds_cache = ClusterBoundsCache()
        #: Cost-based estimator selection for ``method="auto"``; its
        #: config also caps the exact estimator for explicit
        #: ``method="exact"`` queries.
        self.planner = QueryPlanner(planner_config)

    @classmethod
    def build(
        cls,
        graph: UncertainGraph,
        max_imbalance: float = 0.1,
        seed: int = 0,
        strategy: str = "multilevel",
        flow_engine: str = "dinic",
        planner_config: Optional[PortfolioConfig] = None,
    ) -> "RQTreeEngine":
        """Construct the RQ-tree index for *graph* and wrap it."""
        tree, report = build_rqtree(
            graph, max_imbalance=max_imbalance, seed=seed, strategy=strategy
        )
        return cls(
            graph,
            tree,
            build_report=report,
            flow_engine=flow_engine,
            planner_config=planner_config,
        )

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def apply(self, ops: Iterable[object]) -> int:
        """Apply one batch of arc updates to the graph; returns the
        number that changed it.

        Ops are anything :func:`repro.live.updates.normalize_updates`
        accepts, with the batch semantics of
        :func:`repro.live.updates.apply_to_graph`.  The tree is kept as
        built: the ``U_out`` bounds are computed against the current
        graph, so any hierarchical partition is a correct index and an
        update can only change how much it prunes.  Each applied update
        of ``(u, v)`` drops the cached Theorem-5 bound of every cluster
        whose boundary arcs it changed: those on ``u``'s leaf-to-root
        path below the first cluster that contains ``v``.
        """
        from ..live.updates import apply_to_graph, normalize_updates

        applied = 0
        for update in normalize_updates(ops):
            if not apply_to_graph(self.graph, (update,)):
                continue
            applied += 1
            stale = []
            for cluster in self.tree.path_to_root(update.u):
                if update.v in cluster.members:
                    break
                stale.append(cluster.index)
            self.bounds_cache.invalidate(stale)
        return applied

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def candidates(
        self,
        sources: Union[int, Sequence[int]],
        eta: float,
        multi_source_mode: str = "greedy",
    ) -> CandidateResult:
        """Run candidate generation only (the filtering phase)."""
        source_list = self._normalize_sources(sources)
        return generate_candidates(
            self.graph,
            self.tree,
            source_list,
            eta,
            engine=self.flow_engine,
            multi_source_mode=multi_source_mode,
            bounds_cache=self.bounds_cache,
        )

    def query(
        self,
        sources: Union[int, Sequence[int]],
        eta: float,
        method: str = "lb",
        num_samples: int = 1000,
        seed: Optional[int] = None,
        multi_source_mode: str = "greedy",
        max_hops: Optional[int] = None,
        budget: Optional[QueryBudget] = None,
    ) -> QueryResult:
        """Answer the reliability-search query ``RS(S, eta)``.

        Parameters
        ----------
        sources:
            A node id or a sequence of node ids.
        eta:
            Probability threshold in (0, 1).
        method:
            Any estimator in :func:`repro.estimators.available_methods`:
            ``"lb"`` (RQ-tree-LB, perfect precision), ``"lb+"`` (edge
            packing: perfect precision, better recall; hop budgets
            unsupported), ``"mc"`` (chunked Monte-Carlo), ``"rss"``
            (recursive stratified sampling), ``"lazy"`` (lazy
            BFS-sharing batch sampling), ``"exact"`` (treewidth-gated
            exact answers, deterministic sampling fallback past the
            cap), or ``"auto"`` — the cost-based
            :class:`~repro.estimators.QueryPlanner` picks per batch.
        num_samples:
            Worlds sampled by the sampling estimators (ignored for
            ``"lb"``/``"lb+"``/``"exact"``).
        seed:
            Seed for the sampling estimators (ignored for ``"lb"``).
        multi_source_mode:
            ``"greedy"`` (Section 4.3 heuristic) or ``"exact"``
            (Problem 2 Pareto DP); ignored for single-source queries.
        max_hops:
            Optional hop budget: answer the *distance-constrained*
            reliability-search query (only nodes within ``max_hops``
            arcs with probability >= eta count; Jin et al. [20]).  The
            unconstrained candidate set remains valid because hop
            bounds only shrink reachability events, so no new candidate
            machinery is needed — only verification changes.
        budget:
            Optional :class:`~repro.resilience.QueryBudget` bounding the
            whole query (wall-clock deadline spanning filtering *and*
            verification, world cap, candidate-subgraph cap).  A
            budgeted query never raises on expiry: it returns a partial
            :class:`QueryResult` with ``degraded=True`` and a per-node
            status for every candidate.  ``budget=None`` reproduces the
            unbudgeted (seed) behaviour exactly.
        """
        source_list = self._normalize_sources(sources)
        validate_method(method, max_hops=max_hops)
        clock = budget.start() if budget is not None else None
        start = time.perf_counter()
        candidate_result = generate_candidates(
            self.graph,
            self.tree,
            source_list,
            eta,
            engine=self.flow_engine,
            multi_source_mode=multi_source_mode,
            bounds_cache=self.bounds_cache,
            budget=clock,
        )
        candidate_seconds = time.perf_counter() - start

        start = time.perf_counter()
        request = EstimateRequest(
            graph=self.graph,
            sources=source_list,
            eta=eta,
            candidates=candidate_result.candidates,
            num_samples=num_samples,
            seed=seed,
            max_hops=max_hops,
            clock=clock,
            config=self.planner.config,
        )
        if method == AUTO:
            decision = self.planner.plan(request)
        else:
            decision = PlanDecision(
                estimator=method, reason=f"explicit method {method!r}"
            )
        report = run_estimate(get_estimator(decision.estimator), request)
        verification_seconds = time.perf_counter() - start
        if method == AUTO:
            self.planner.record_outcome(decision, verification_seconds)
        estimator_used = report.estimator or decision.estimator
        planner_reason = (
            f"{decision.reason}; {report.notes}"
            if report.notes
            else decision.reason
        )

        min_depth = min(
            (
                self.tree.clusters[index].depth
                for index in candidate_result.selected_clusters
            ),
            default=0,
        )
        degraded = candidate_result.degraded or report.degraded
        degraded_reason = candidate_result.degraded_reason or report.degraded_reason
        self._record_query_metrics(
            method,
            estimator_used,
            candidate_seconds,
            verification_seconds,
            degraded,
        )
        return QueryResult(
            nodes=report.kept,
            eta=eta,
            sources=source_list,
            method=method,
            candidate_result=candidate_result,
            candidate_seconds=candidate_seconds,
            verification_seconds=verification_seconds,
            tree_height=self.tree.height,
            num_graph_nodes=self.graph.num_nodes,
            min_selected_depth=min_depth,
            statuses=report.statuses,
            degraded=degraded,
            degraded_reason=degraded_reason,
            worlds_used=report.worlds_used,
            achieved_confidence=report.achieved_confidence,
            estimator=estimator_used,
            planner_reason=planner_reason,
            estimates=report.estimates,
            epoch=self.graph.epoch,
        )

    @staticmethod
    def _record_query_metrics(
        method: str,
        estimator_used: str,
        candidate_seconds: float,
        verification_seconds: float,
        degraded: bool,
    ) -> None:
        """Per-stage timers and query counters for the serving layer."""
        from ..service.metrics import get_registry

        registry = get_registry()
        registry.counter("engine.queries").inc()
        registry.counter(f"engine.queries.{method}").inc()
        if degraded:
            registry.counter("engine.degraded").inc()
        registry.histogram("engine.filter_seconds").observe(candidate_seconds)
        registry.histogram("engine.verify_seconds").observe(
            verification_seconds
        )
        # Per-estimator latency: keyed by what actually ran, so a
        # treewidth-cap fallback shows up under "mc", not "exact".
        registry.histogram(f"estimator.{estimator_used}.seconds").observe(
            verification_seconds
        )

    @staticmethod
    def _normalize_sources(sources: Union[int, Sequence[int]]) -> List[int]:
        if isinstance(sources, int):
            return [sources]
        source_list = list(dict.fromkeys(sources))
        if not source_list:
            raise EmptySourceSetError()
        return source_list
