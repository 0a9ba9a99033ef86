"""Resilience: query budgets, graceful degradation, fault injection.

Production reliability search must degrade, not die.  This package
holds the three legs of that contract:

* :mod:`repro.resilience.budget` — :class:`QueryBudget` (wall-clock
  deadline, world cap, candidate-subgraph cap) and the per-node
  verification statuses (:data:`CONFIRMED` / :data:`REJECTED` /
  :data:`UNVERIFIED`) that budgeted queries report instead of raising;
* kernel-failure degradation — a failing sampling kernel (see
  :class:`repro.graph.sampling.ReachabilityFrequencyEstimator`) turns
  into a degraded answer with every non-source candidate unverified,
  never an exception out of a query
  (:func:`repro.estimators.base.run_estimate`);
* :mod:`repro.resilience.faultinject` — named, deterministic injection
  points (:class:`FaultPlan`) with which the test suite proves every
  degradation path end to end.
"""

from .budget import (
    CONFIRMED,
    REJECTED,
    UNVERIFIED,
    BudgetClock,
    QueryBudget,
    wilson_bounds,
    wilson_interval,
)
from .faultinject import INJECTION_POINTS, FaultPlan, fault_point

__all__ = [
    "CONFIRMED",
    "REJECTED",
    "UNVERIFIED",
    "QueryBudget",
    "BudgetClock",
    "wilson_bounds",
    "wilson_interval",
    "INJECTION_POINTS",
    "FaultPlan",
    "fault_point",
]
