"""Tunables for the estimator portfolio and the query planner.

One frozen dataclass so a whole engine (or a single
:class:`~repro.estimators.base.EstimateRequest`) can carry a coherent
set of caps and thresholds.  Every knob has a documented default; tests
exercise the edges by constructing configs directly (e.g. a
``exact_width_cap=0`` config forces the exact estimator's sampling
fallback).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PortfolioConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class PortfolioConfig:
    """Caps and thresholds shared by the estimators and the planner."""

    #: Maximum greedy-elimination width for which the exact path runs.
    #: The frontier-conditioning state count grows exponentially with
    #: the width, so this is the knob that bounds worst-case exact
    #: latency.  Measured on sparse digraphs: width <= 4 stays in the
    #: low milliseconds, width 5+ can reach seconds.
    exact_width_cap: int = 4

    #: Node / arc caps on the candidate subgraph for the exact path (and
    #: for bothering to probe its treewidth at all — elimination itself
    #: costs O(n * deg^2)).
    exact_node_cap: int = 30
    exact_arc_cap: int = 64

    #: Hard cap on distinct frontier states the exact computation may
    #: expand before aborting into the seeded sampling fallback.  The
    #: width probe is a prediction; this is the in-flight guarantee.
    exact_state_cap: int = 20000

    #: Run the (more careful, more expensive) min-fill elimination probe
    #: only on subgraphs at most this large; min-degree always runs.
    min_fill_node_cap: int = 64

    #: Number of pivot arcs RSS stratifies on (2^r strata).
    rss_pivots: int = 3

    #: RSS is preferred by the planner when the pivot arcs carry at
    #: least this share of the total arc-probability variance and the
    #: subgraph is below :attr:`rss_node_cap`.
    rss_concentration: float = 0.6
    rss_node_cap: int = 512

    #: The planner picks exact over the cheapest sampler as long as its
    #: predicted cost is within this multiple — zero variance is worth a
    #: modest premium.
    exact_cost_bias: float = 1.5


#: Shared default instance (the config is frozen, so sharing is safe).
DEFAULT_CONFIG = PortfolioConfig()
