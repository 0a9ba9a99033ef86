"""Estimator portfolio and cost-based query planner.

The verification phase of every query dispatches through this package:
a registry of pluggable :class:`Estimator` strategies (the paper's
``lb`` / ``lb+`` / ``mc`` plus recursive stratified sampling, lazy
BFS-sharing, and a treewidth-gated exact path) and a
:class:`QueryPlanner` that picks one per candidate batch from subgraph
statistics when ``method="auto"``.

See ``docs/ARCHITECTURE.md`` ("Estimator portfolio & planner") for the
decision flow and the cost-model inputs.
"""

from .base import EstimateRequest, Estimator, run_estimate
from .config import DEFAULT_CONFIG, PortfolioConfig
from .planner import PlanDecision, QueryPlanner, default_planner
from .registry import (
    AUTO,
    available_methods,
    get_estimator,
    is_cacheable,
    methods_supporting_max_hops,
    register,
    sampling_methods,
    validate_method,
)
from .stats import SubgraphStats, collect_stats, treewidth_upper_bound

__all__ = [
    "AUTO",
    "DEFAULT_CONFIG",
    "EstimateRequest",
    "Estimator",
    "PlanDecision",
    "PortfolioConfig",
    "QueryPlanner",
    "SubgraphStats",
    "available_methods",
    "collect_stats",
    "default_planner",
    "get_estimator",
    "is_cacheable",
    "methods_supporting_max_hops",
    "register",
    "run_estimate",
    "sampling_methods",
    "treewidth_upper_bound",
    "validate_method",
]
