"""The MC-Sampling baseline (paper, Section 7.1, from Fishman [13]).

Monte-Carlo sampling on the *whole graph*: draw ``K`` possible worlds
and return every node reachable from the source set in at least
``η K`` of them.  The paper's baseline samples online, flipping arc
coins as a BFS from the source set reaches them; the batched kernel of
:mod:`repro.accel` draws the coins of a chunk of worlds up front and
runs all their BFSs at once, which samples the same distribution.

This is also the paper's accuracy proxy: with large ``K`` the estimator
converges to the true answer, so RQ-tree precision/recall are measured
against its output (Section 7.1, "Accuracy assessment criteria").
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Union

from ..errors import EmptySourceSetError, InvalidThresholdError
from ..graph.sampling import ReachabilityFrequencyEstimator
from ..graph.uncertain import UncertainGraph

__all__ = ["MCSamplingResult", "mc_sampling_search", "mc_reliability"]


@dataclass
class MCSamplingResult:
    """Answer set plus instrumentation of one MC-Sampling run."""

    nodes: Set[int]
    frequencies: Dict[int, float]
    num_samples: int
    seconds: float


def _normalize(sources: Union[int, Sequence[int]]) -> List[int]:
    if isinstance(sources, int):
        return [sources]
    source_list = list(dict.fromkeys(sources))
    if not source_list:
        raise EmptySourceSetError()
    return source_list


def mc_sampling_search(
    graph: UncertainGraph,
    sources: Union[int, Sequence[int]],
    eta: float,
    num_samples: int = 1000,
    seed: Optional[int] = None,
    max_hops: Optional[int] = None,
) -> MCSamplingResult:
    """Answer ``RS(S, eta)`` with whole-graph Monte-Carlo sampling.

    Time complexity ``O(K (n + m))`` (Table 1): each of the ``K`` worlds
    costs one BFS over at most the whole graph, run on the batched
    kernel of :mod:`repro.accel`.
    """
    source_list = _normalize(sources)
    if math.isnan(eta) or not 0.0 < eta < 1.0:
        raise InvalidThresholdError(eta)
    if num_samples <= 0:
        raise ValueError(f"num_samples must be positive, got {num_samples}")
    start = time.perf_counter()
    estimator = ReachabilityFrequencyEstimator(
        graph, source_list, seed=seed, max_hops=max_hops
    )
    estimator.run(num_samples)
    nodes = estimator.nodes_above(eta)
    elapsed = time.perf_counter() - start
    return MCSamplingResult(
        nodes=nodes,
        frequencies=estimator.frequencies(),
        num_samples=num_samples,
        seconds=elapsed,
    )


def mc_reliability(
    graph: UncertainGraph,
    sources: Union[int, Sequence[int]],
    target: int,
    num_samples: int = 1000,
    seed: Optional[int] = None,
) -> float:
    """Two-terminal(-style) reliability estimate ``R(S, t)`` by sampling."""
    source_list = _normalize(sources)
    estimator = ReachabilityFrequencyEstimator(
        graph, source_list, seed=seed
    )
    estimator.run(num_samples)
    return estimator.frequencies().get(target, 0.0)
