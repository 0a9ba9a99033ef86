"""Reliability-search baselines: MC-Sampling [13] and RHT-sampling [20]."""

from .montecarlo import MCSamplingResult, mc_sampling_search, mc_reliability
from .rht import RHTSearchResult, rht_reliability, rht_reliability_search
from .estimators import SearchMethod, make_method_suite
from .variance_reduction import (
    antithetic_reliability,
    stratified_reliability,
)

__all__ = [
    "MCSamplingResult",
    "mc_sampling_search",
    "mc_reliability",
    "RHTSearchResult",
    "rht_reliability",
    "rht_reliability_search",
    "SearchMethod",
    "make_method_suite",
    "antithetic_reliability",
    "stratified_reliability",
]
