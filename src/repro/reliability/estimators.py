"""Uniform estimator interface over the reliability-search methods.

The evaluation harness (:mod:`repro.eval`) compares four methods that
answer the same query with different machinery.  This module adapts them
to one call signature, ``estimator(graph, sources, eta) -> set``, so the
method-comparison harness (:mod:`repro.eval.comparison`) never
special-cases a method.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Set, Union

from ..core.engine import RQTreeEngine
from ..graph.uncertain import UncertainGraph
from .montecarlo import mc_sampling_search
from .rht import rht_reliability_search

__all__ = ["SearchMethod", "make_method_suite"]

SearchMethod = Callable[[UncertainGraph, Sequence[int], float], Set[int]]


def make_method_suite(
    engine: RQTreeEngine,
    num_samples: int = 1000,
    rht_budget: int = 64,
    seed: Optional[int] = None,
    include_rht: bool = False,
    include_lb_plus: bool = False,
) -> Dict[str, SearchMethod]:
    """Build the paper's method suite over a shared RQ-tree engine.

    Returns a name -> callable map with keys ``rq-tree-lb``,
    ``rq-tree-mc``, ``mc-sampling`` and (optionally) ``rht-sampling``
    and ``rq-tree-lb+``.  RHT is opt-in because its per-node cost makes
    it impractical beyond the smallest graphs — exactly the point of
    Table 4; lb+ is opt-in to keep the default suite the paper's own.
    """

    def rq_lb(
        graph: UncertainGraph, sources: Sequence[int], eta: float
    ) -> Set[int]:
        return engine.query(list(sources), eta, method="lb").nodes

    def rq_mc(
        graph: UncertainGraph, sources: Sequence[int], eta: float
    ) -> Set[int]:
        return engine.query(
            list(sources), eta, method="mc", num_samples=num_samples, seed=seed
        ).nodes

    def mc(
        graph: UncertainGraph, sources: Sequence[int], eta: float
    ) -> Set[int]:
        return mc_sampling_search(
            graph, list(sources), eta, num_samples=num_samples, seed=seed
        ).nodes

    suite: Dict[str, SearchMethod] = {
        "rq-tree-lb": rq_lb,
        "rq-tree-mc": rq_mc,
        "mc-sampling": mc,
    }
    if include_lb_plus:

        def rq_lb_plus(
            graph: UncertainGraph, sources: Sequence[int], eta: float
        ) -> Set[int]:
            return engine.query(list(sources), eta, method="lb+").nodes

        suite["rq-tree-lb+"] = rq_lb_plus
    if include_rht:

        def rht(
            graph: UncertainGraph, sources: Sequence[int], eta: float
        ) -> Set[int]:
            return rht_reliability_search(
                graph, list(sources), eta, budget=rht_budget, seed=seed
            ).nodes

        suite["rht-sampling"] = rht
    return suite
