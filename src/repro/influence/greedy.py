"""Hill-climbing Greedy influence maximization (Kempe et al. [23]).

The expected spread ``σ(S)`` is monotone and submodular under the
independent cascade model, so the Greedy algorithm that repeatedly adds
the node with the largest marginal gain achieves a ``(1 - 1/e)``
approximation.  Evaluating marginal gains exactly is #P-complete, so
Greedy is instantiated with a spread *oracle*:

* :func:`greedy_mc` — the classic baseline: Monte-Carlo spread oracle,
  optionally accelerated with CELF lazy evaluation (Goyal et al. [17]),
  exploiting submodularity to skip most re-evaluations;
* :func:`greedy_rqtree` — the paper's Section 7.7 variant: the RQ-tree
  histogram spread oracle, turning each evaluation into a handful of
  index queries.

Both return per-iteration traces (chosen seed, oracle spread estimate,
cumulative wall time) so Figure 5 can be regenerated directly.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Set, Tuple

from ..core.engine import RQTreeEngine
from ..graph.uncertain import UncertainGraph
from .spread import (
    DEFAULT_THRESHOLDS,
    expected_spread_histogram,
    expected_spread_mc,
)

__all__ = ["GreedyTrace", "greedy_influence", "greedy_mc", "greedy_rqtree"]

SpreadOracle = Callable[[Sequence[int]], float]


@dataclass
class GreedyTrace:
    """Result of one Greedy run.

    ``seeds[i]`` is the ``(i+1)``-th chosen node; ``spreads[i]`` the
    oracle's spread estimate after adding it; ``seconds[i]`` cumulative
    wall time through that iteration; ``evaluations`` the total number
    of oracle calls (CELF's savings show up here).
    """

    seeds: List[int] = field(default_factory=list)
    spreads: List[float] = field(default_factory=list)
    seconds: List[float] = field(default_factory=list)
    evaluations: int = 0


def greedy_influence(
    graph: UncertainGraph,
    k: int,
    oracle: SpreadOracle,
    candidates: Optional[Sequence[int]] = None,
    use_celf: bool = True,
) -> GreedyTrace:
    """Generic Greedy hill climbing over a spread oracle.

    Parameters
    ----------
    k:
        Number of seeds to select.
    oracle:
        Maps a seed sequence to a spread estimate.  Must be monotone
        submodular (in expectation) for CELF pruning to be sound.
    candidates:
        Node pool to select from (default: all graph nodes).
    use_celf:
        Lazy-evaluation pruning: nodes are re-evaluated only when their
        stale marginal gain tops the queue, exploiting the fact that
        submodular marginal gains only shrink as the seed set grows.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    pool = list(candidates) if candidates is not None else list(graph.nodes())
    trace = GreedyTrace()
    start = time.perf_counter()
    chosen: List[int] = []
    current_spread = 0.0

    if use_celf:
        # Max-heap of (-marginal_gain, node, round_evaluated).
        heap: List[Tuple[float, int, int]] = []
        for node in pool:
            gain = oracle([node])
            trace.evaluations += 1
            heapq.heappush(heap, (-gain, node, 0))
        for _ in range(k):
            while heap:
                neg_gain, node, evaluated_at = heapq.heappop(heap)
                if evaluated_at == len(chosen):
                    # Fresh w.r.t. the current seed set: select it.
                    chosen.append(node)
                    current_spread += -neg_gain
                    break
                gain = oracle(chosen + [node]) - current_spread
                trace.evaluations += 1
                heapq.heappush(heap, (-gain, node, len(chosen)))
            else:
                break  # pool exhausted
            trace.seeds.append(chosen[-1])
            trace.spreads.append(current_spread)
            trace.seconds.append(time.perf_counter() - start)
            if len(chosen) >= k:
                break
    else:
        remaining = set(pool)
        for _ in range(k):
            best_node = None
            best_spread = -1.0
            for node in remaining:
                spread = oracle(chosen + [node])
                trace.evaluations += 1
                if spread > best_spread:
                    best_spread = spread
                    best_node = node
            if best_node is None:
                break
            chosen.append(best_node)
            remaining.discard(best_node)
            current_spread = best_spread
            trace.seeds.append(best_node)
            trace.spreads.append(current_spread)
            trace.seconds.append(time.perf_counter() - start)
    return trace


def greedy_mc(
    graph: UncertainGraph,
    k: int,
    num_samples: int = 200,
    seed: Optional[int] = None,
    candidates: Optional[Sequence[int]] = None,
    use_celf: bool = True,
) -> GreedyTrace:
    """Greedy with the Monte-Carlo spread oracle (the Figure 5 baseline)."""

    def oracle(seeds: Sequence[int]) -> float:
        return expected_spread_mc(
            graph, seeds, num_samples=num_samples, seed=seed
        )

    return greedy_influence(
        graph, k, oracle, candidates=candidates, use_celf=use_celf
    )


def greedy_rqtree(
    engine: RQTreeEngine,
    k: int,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    candidates: Optional[Sequence[int]] = None,
    use_celf: bool = True,
) -> GreedyTrace:
    """Greedy with the RQ-tree histogram oracle (paper, Section 7.7)."""

    def oracle(seeds: Sequence[int]) -> float:
        return expected_spread_histogram(engine, seeds, thresholds=thresholds)

    return greedy_influence(
        engine.graph, k, oracle, candidates=candidates, use_celf=use_celf
    )
