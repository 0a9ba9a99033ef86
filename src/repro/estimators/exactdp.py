"""Exact estimator (``method="exact"``): zero-variance answers on
small-treewidth candidate subgraphs.

Post-filtering candidate subgraphs are often tiny ("An Efficient
Algorithm for Computing Network Reliability in Small Treewidth",
PAPERS.md), so exact computation beats sampling outright there.  The
pipeline:

1. probe the candidate subgraph's treewidth with greedy
   min-degree/min-fill elimination (:mod:`repro.estimators.stats`);
2. when the width (and node/arc counts) fit the configured caps, run
   frontier conditioning: condition only on arcs *leaving the current
   reached set*, so every recursion state is a (reached set, deleted
   boundary arcs) pair and a single traversal yields the exact
   reliability of **every** candidate at once.  States are memoised —
   deleted arcs whose head has since been absorbed are dropped from the
   key, which merges converging branches — and the state count tracks
   the subgraph's cut structure, i.e. its width;
3. past any cap — including the in-flight ``exact_state_cap`` guard,
   which can trip mid-computation when the width probe was too
   optimistic — fall back to the chunked-MC estimator under the query's
   own seed, so the fallback is exactly the ``mc`` query at that seed
   (and ``auto``, which picks ``mc`` there, draws the same coins); an
   unseeded query gets a fixed derived seed (``derive_seed(0,
   "estimators", "exact-fallback")``), so an explicit
   ``method="exact"`` stays deterministic — and therefore cacheable —
   even when it cannot be exact.

Answers are certified lower bounds of the whole-graph reliability
(the candidate-induced subgraph only removes paths), zero-variance, and
need no Wilson stopping: ``worlds_used`` is 0 and every decided status
is final.  The traversal visits arcs in sorted order, so results are
bit-identical across processes and shard layouts given the same
candidate subgraph.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..core.verification import (
    _ETA_SLACK,
    VerificationReport,
    _check,
    _verification_subset,
)
from ..graph.uncertain import UncertainGraph
from ..resilience.budget import CONFIRMED, REJECTED, UNVERIFIED, BudgetClock
from ..seeding import derive_seed
from .base import EstimateRequest, Estimator, expired_report
from .montecarlo import MonteCarloEstimator
from .stats import SubgraphStats, treewidth_upper_bound

__all__ = ["ExactEstimator"]

#: Per-predicted-state cost of the frontier traversal (python dicts of
#: per-target marginals dominate).  Measured: the median run takes 0.36x
#: of the earlier 2e-5 s/state prediction on 60 small candidate
#: subgraphs (n = 3-28, treewidth <= 4).
_STATE_UNIT = 7e-6

#: Check the budget clock every this many expanded states.
_CLOCK_STRIDE = 256


class _Abort(Exception):
    """Raised inside the frontier traversal when a guard trips."""

    def __init__(self, reason: str) -> None:
        self.reason = reason
        super().__init__(reason)


def _reach_all(
    graph: UncertainGraph,
    sources: FrozenSet[int],
    state_cap: int,
    clock: Optional[BudgetClock],
) -> Dict[int, float]:
    """Exact reachability probability of every node from *sources*.

    Frontier conditioning: repeatedly pick the lowest undecided arc
    leaving the reached set; branch on its presence.  A state's future
    depends only on the reached set and the deleted arcs still on its
    boundary, so memoising on that pair merges converging branches.
    Raises :class:`_Abort` when *state_cap* is exceeded or *clock*
    expires.
    """
    arcs_from: Dict[int, List[Tuple[int, float, int]]] = {}
    arc_id = 0
    for u, v, p in sorted(graph.arcs()):
        arcs_from.setdefault(u, []).append((v, p, arc_id))
        arc_id += 1
    memo: Dict[
        Tuple[FrozenSet[int], FrozenSet[int]], Dict[int, float]
    ] = {}
    expanded = 0

    def solve(
        reached: FrozenSet[int], deleted: FrozenSet[int]
    ) -> Dict[int, float]:
        nonlocal expanded
        key = (reached, deleted)
        cached = memo.get(key)
        if cached is not None:
            return cached
        expanded += 1
        if expanded > state_cap:
            raise _Abort(
                f"state budget {state_cap} exceeded mid-computation"
            )
        if (
            clock is not None
            and expanded % _CLOCK_STRIDE == 0
            and clock.expired()
        ):
            raise _Abort("deadline expired during exact verification")
        arc = None
        for u in sorted(reached):
            for entry in arcs_from.get(u, ()):
                if entry[0] not in reached and entry[2] not in deleted:
                    arc = (u,) + entry
                    break
            if arc is not None:
                break
        if arc is None:
            result = {node: 1.0 for node in reached}
        else:
            _, head, prob, aid = arc
            absent = solve(reached, deleted | {aid})
            grown = reached | {head}
            # Deleted arcs whose head was just absorbed no longer
            # constrain the future; dropping them merges states.
            relevant = frozenset(
                entry[2]
                for u in grown
                for entry in arcs_from.get(u, ())
                if entry[2] in deleted and entry[0] not in grown
            )
            present = solve(grown, relevant)
            result = {}
            complement = 1.0 - prob
            for node, value in absent.items():
                result[node] = complement * value
            for node, value in present.items():
                result[node] = result.get(node, 0.0) + prob * value
        memo[key] = result
        return result

    return solve(sources, frozenset())


class ExactEstimator(Estimator):
    """Treewidth-gated exact verification with a deterministic sampling
    fallback."""

    name = "exact"
    deterministic_unseeded = True
    exact = True
    supports_max_hops = False

    def cost(self, stats: SubgraphStats, request: EstimateRequest) -> float:
        config = request.config
        width = stats.treewidth_estimate
        if (
            width is None
            or width > config.exact_width_cap
            or stats.num_nodes > config.exact_node_cap
            or stats.num_arcs > config.exact_arc_cap
        ):
            return math.inf
        predicted_states = min(
            float(config.exact_state_cap),
            (stats.num_arcs + 1.0) * (2.0 ** min(width, 16)),
        )
        return _STATE_UNIT * predicted_states + 5e-5

    def estimate(self, request: EstimateRequest) -> VerificationReport:
        source_set = _check(request.eta, request.sources)
        self.validate(request)
        clock = request.clock
        if clock is not None and clock.expired():
            report = expired_report(
                request.sources,
                request.candidates,
                "deadline expired before verification",
            )
            report.estimator = self.name
            return report
        subset, dropped = _verification_subset(
            source_set, request.candidates, clock
        )
        config = request.config
        num_arcs = sum(
            1
            for u in subset
            for v in request.graph.successors(u)
            if v in subset
        )
        width: Optional[int] = None
        if (
            len(subset) <= config.exact_node_cap
            and num_arcs <= config.exact_arc_cap
        ):
            width = treewidth_upper_bound(
                request.graph,
                subset,
                abort_above=config.exact_width_cap,
                min_fill_node_cap=config.min_fill_node_cap,
            )
        if width is None or width > config.exact_width_cap:
            return self._fallback(
                request, self._cap_reason(config, width, len(subset), num_arcs)
            )

        sub, relabel = request.graph.subgraph(subset).materialize()
        present_sources = frozenset(
            relabel[s] for s in source_set if s in relabel
        )
        if present_sources:
            try:
                reached = _reach_all(
                    sub, present_sources, config.exact_state_cap, clock
                )
            except _Abort as abort:
                return self._fallback(request, abort.reason)
        else:
            reached = {}
        cutoff = request.eta * (1.0 - _ETA_SLACK)
        statuses: Dict[int, str] = {node: UNVERIFIED for node in dropped}
        estimates: Dict[int, float] = {}
        for node in sorted(subset):
            if node in source_set:
                statuses[node] = CONFIRMED
                estimates[node] = 1.0
                continue
            reliability = reached.get(relabel[node], 0.0)
            estimates[node] = reliability
            statuses[node] = (
                CONFIRMED if reliability >= cutoff else REJECTED
            )
        degraded_reason: Optional[str] = None
        if dropped:
            degraded_reason = (
                "candidate-subgraph cap left candidates unverified"
            )
        report = VerificationReport(
            kept={n for n, s in statuses.items() if s == CONFIRMED},
            statuses=statuses,
            degraded=degraded_reason is not None,
            degraded_reason=degraded_reason,
            estimates=estimates,
        )
        report.estimator = self.name
        return report

    @staticmethod
    def _cap_reason(
        config, width: Optional[int], num_nodes: int, num_arcs: int
    ) -> str:
        if width is None:
            return (
                f"subgraph too large to probe (n={num_nodes} "
                f"arcs={num_arcs} vs caps {config.exact_node_cap}/"
                f"{config.exact_arc_cap})"
            )
        return (
            f"treewidth estimate {width} exceeds cap "
            f"{config.exact_width_cap}"
        )

    def _fallback(
        self, request: EstimateRequest, why: str
    ) -> VerificationReport:
        """Deterministic chunked-MC fallback past the exactness caps:
        ``mc`` under the query's seed, or a fixed derived one when the
        query has none."""
        from ..service.metrics import get_registry

        get_registry().counter("planner.exact_fallbacks").inc()
        seed = request.seed
        if seed is None:
            seed = derive_seed(0, "estimators", "exact-fallback")
        report = MonteCarloEstimator().estimate(request.with_(seed=seed))
        report.estimator = MonteCarloEstimator.name
        report.notes = f"exact fallback: {why}; ran seeded mc instead"
        return report
