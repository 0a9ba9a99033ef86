"""The cost-based query planner behind ``method="auto"``.

Per candidate batch the planner collects cheap deterministic subgraph
statistics (:func:`repro.estimators.stats.collect_stats`), asks every
eligible estimator's cost model for a predicted wall time, and picks:

1. ``lb`` when there is nothing beyond the sources to verify, or when
   the remaining deadline cannot pay for any sampler (a certified bound
   is the best thing a near-dead budget can buy);
2. ``exact`` when the treewidth probe fits the caps and the predicted
   exact cost is within ``exact_cost_bias`` of the cheapest sampler —
   zero variance at comparable latency always wins;
3. under a wall-clock deadline, ``mc`` — chunked sampling with Wilson
   early stopping is the only estimator that can stop mid-batch;
4. otherwise ``rss`` when the pivot arcs carry enough of the total
   variance to pay for stratification, else ``mc``.  (``lazy`` is the
   ``mc`` estimator under another name, so it is never chosen.)

The decision, its reason, and regret signals are recorded in
``planner.*`` metrics: ``planner.decisions.<name>`` counters,
``planner.plan_seconds``, and after execution
``planner.cost_error_seconds`` (|predicted − actual| for the chosen
estimator — the tunable-regret signal named by the ROADMAP) plus
``planner.regret_seconds`` (actual − cheapest predicted, clamped at 0).

Decisions are pure functions of the query and graph — no randomness —
so planning is deterministic per seed by construction.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from .base import EstimateRequest
from .config import DEFAULT_CONFIG, PortfolioConfig
from .registry import get_estimator, methods_supporting_max_hops
from .stats import SubgraphStats, collect_stats

__all__ = ["PlanDecision", "QueryPlanner", "default_planner"]


@dataclass(frozen=True)
class PlanDecision:
    """One planning outcome: the chosen estimator and why."""

    estimator: str
    reason: str
    predicted_seconds: Dict[str, float] = field(default_factory=dict)
    stats: Optional[SubgraphStats] = None

    @property
    def predicted(self) -> float:
        """Predicted seconds of the chosen estimator (inf if unknown)."""
        return self.predicted_seconds.get(self.estimator, math.inf)


class QueryPlanner:
    """Cost-based estimator selection for one engine."""

    def __init__(self, config: Optional[PortfolioConfig] = None) -> None:
        self.config = config if config is not None else DEFAULT_CONFIG

    # ------------------------------------------------------------------
    def plan(self, request: EstimateRequest) -> PlanDecision:
        """Choose an estimator for *request* and record the decision."""
        start = time.perf_counter()
        config = self.config
        clock = request.clock
        stats = collect_stats(
            request.graph,
            request.candidates,
            request.sources,
            rss_pivots=config.rss_pivots,
            probe_node_cap=config.exact_node_cap,
            probe_arc_cap=config.exact_arc_cap,
            width_abort_above=config.exact_width_cap,
            min_fill_node_cap=config.min_fill_node_cap,
            remaining_seconds=(
                clock.remaining_seconds() if clock is not None else None
            ),
            max_worlds=(
                clock.budget.max_worlds if clock is not None else None
            ),
        )
        pool = ["lb", "lb+", "mc", "rss", "exact"]
        if request.max_hops is not None:
            supported = set(methods_supporting_max_hops(include_auto=False))
            pool = [name for name in pool if name in supported]
        predicted = {
            name: get_estimator(name).cost(stats, request) for name in pool
        }
        decision = self._choose(request, stats, predicted)
        self._record(decision, time.perf_counter() - start)
        return decision

    def _choose(
        self,
        request: EstimateRequest,
        stats: SubgraphStats,
        predicted: Dict[str, float],
    ) -> PlanDecision:
        config = self.config
        clock = request.clock
        samplers = [name for name in ("mc", "rss") if name in predicted]
        cheapest_sampler = min(
            samplers, key=lambda name: (predicted[name], name)
        )
        sampler_cost = predicted[cheapest_sampler]

        if stats.num_nodes <= stats.sources_in_candidates:
            return PlanDecision(
                "lb",
                "trivial batch: no candidates beyond the sources",
                predicted, stats,
            )
        if (
            clock is not None
            and stats.remaining_seconds is not None
            and stats.remaining_seconds < sampler_cost
        ):
            return PlanDecision(
                "lb",
                (
                    f"remaining budget {stats.remaining_seconds * 1e3:.1f} ms "
                    f"below cheapest sampler's predicted "
                    f"{sampler_cost * 1e3:.1f} ms; certified bound only"
                ),
                predicted, stats,
            )
        exact_cost = predicted.get("exact", math.inf)
        if exact_cost <= config.exact_cost_bias * sampler_cost:
            return PlanDecision(
                "exact",
                (
                    f"treewidth estimate {stats.treewidth_estimate} within "
                    f"cap {config.exact_width_cap}; exact predicted "
                    f"{exact_cost * 1e3:.2f} ms vs cheapest sampler "
                    f"{sampler_cost * 1e3:.2f} ms — zero variance wins"
                ),
                predicted, stats,
            )
        if (
            clock is not None
            and clock.budget.deadline_seconds is not None
            and "mc" in predicted
        ):
            return PlanDecision(
                "mc",
                "deadline budget: chunked MC is the only estimator with "
                "Wilson early stopping",
                predicted, stats,
            )
        if (
            "rss" in predicted
            and stats.variance_concentration >= config.rss_concentration
            and stats.num_nodes <= config.rss_node_cap
        ):
            return PlanDecision(
                "rss",
                (
                    f"pivot arcs carry "
                    f"{stats.variance_concentration:.0%} of arc variance "
                    f"(threshold {config.rss_concentration:.0%}); "
                    "stratification pays"
                ),
                predicted, stats,
            )
        return PlanDecision(
            cheapest_sampler,
            (
                f"cheapest sampler predicted "
                f"{sampler_cost * 1e3:.2f} ms on n={stats.num_nodes} "
                f"m={stats.num_arcs}"
            ),
            predicted, stats,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _record(decision: PlanDecision, plan_seconds: float) -> None:
        from ..service.metrics import get_registry

        registry = get_registry()
        registry.counter("planner.decisions").inc()
        registry.counter(f"planner.decisions.{decision.estimator}").inc()
        registry.histogram("planner.plan_seconds").observe(plan_seconds)

    @staticmethod
    def record_outcome(
        decision: PlanDecision, actual_seconds: float
    ) -> None:
        """Post-execution regret signals for policy tuning."""
        from ..service.metrics import get_registry

        registry = get_registry()
        predicted = decision.predicted
        if math.isfinite(predicted):
            registry.histogram("planner.cost_error_seconds").observe(
                abs(actual_seconds - predicted)
            )
        finite = [
            cost
            for cost in decision.predicted_seconds.values()
            if math.isfinite(cost)
        ]
        if finite:
            registry.histogram("planner.regret_seconds").observe(
                max(0.0, actual_seconds - min(finite))
            )


#: Module-level singleton used by surfaces that have no engine of their
#: own (the default planner is stateless apart from its config).
_DEFAULT_PLANNER = QueryPlanner()


def default_planner() -> QueryPlanner:
    return _DEFAULT_PLANNER
