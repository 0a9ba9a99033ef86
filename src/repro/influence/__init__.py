"""Influence maximization under the independent cascade model (§7.7)."""

from .spread import (
    expected_spread_mc,
    expected_spread_histogram,
    DEFAULT_THRESHOLDS,
)
from .greedy import GreedyTrace, greedy_influence, greedy_mc, greedy_rqtree

__all__ = [
    "expected_spread_mc",
    "expected_spread_histogram",
    "DEFAULT_THRESHOLDS",
    "GreedyTrace",
    "greedy_influence",
    "greedy_mc",
    "greedy_rqtree",
]
