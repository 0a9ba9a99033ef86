"""Expected-spread estimation under the independent cascade model.

Influence maximization (paper, Section 7.7; Kempe et al. [23]) seeks a
seed set ``S`` of ``k`` nodes maximizing the expected spread

.. math::

    \\sigma(S) = \\sum_{t \\in N} R(S, t),

i.e. the expected number of nodes reachable from ``S`` in a possible
world.  Under the independent cascade model with activation
probabilities on arcs, a node's activation event is exactly the
reachability event in the uncertain graph, so spread estimation reduces
to the machinery this library already has:

* :func:`expected_spread_mc` — Monte-Carlo: average reached-set size
  over sampled worlds (the classic estimator the Greedy baseline uses);
* :func:`expected_spread_histogram` — the paper's RQ-tree shortcut: fix
  thresholds ``η_1 < ... < η_p``, measure the reliability-search answer
  sizes ``f(S, η_i) = |RS(S, η_i)|`` with RQ-tree-LB, and integrate the
  histogram (Section 7.7).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..accel import sample_reach_batch
from ..core.engine import RQTreeEngine
from ..errors import EmptySourceSetError
from ..graph.uncertain import UncertainGraph

__all__ = [
    "expected_spread_mc",
    "expected_spread_histogram",
    "DEFAULT_THRESHOLDS",
]

#: Default histogram thresholds for the RQ-tree spread estimator.
DEFAULT_THRESHOLDS: Tuple[float, ...] = (0.2, 0.4, 0.6, 0.8)


def expected_spread_mc(
    graph: UncertainGraph,
    seeds: Sequence[int],
    num_samples: int = 1000,
    seed: Optional[int] = None,
) -> float:
    """Monte-Carlo estimate of the expected spread ``σ(seeds)``.

    Averages the reachable-set size over *num_samples* sampled worlds
    of the whole graph.  Unbiased; this is both the baseline Greedy's
    inner oracle and the paper's final accuracy yardstick for Figure 5.
    The reached-set sizes of all worlds add up to the batched kernel's
    per-node hit counts (:mod:`repro.accel`), so their mean is the
    counts' sum over the number of worlds.
    """
    seed_list = list(dict.fromkeys(seeds))
    if not seed_list:
        raise EmptySourceSetError()
    if num_samples <= 0:
        raise ValueError(f"num_samples must be positive, got {num_samples}")
    batch = sample_reach_batch(
        graph, seed_list, num_samples, np.random.default_rng(seed)
    )
    return float(batch.counts.sum() / num_samples)


def expected_spread_histogram(
    engine: RQTreeEngine,
    seeds: Sequence[int],
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
) -> float:
    """RQ-tree histogram spread estimate (paper, Section 7.7).

    With ascending thresholds ``η_1 < ... < η_p`` and answer sizes
    ``f_i = |RS(S, η_i)|`` (non-increasing in ``i``), the spread is
    approximated by the lower Riemann sum of the reliability histogram::

        σ(S) ≈ f_p η_p + (f_{p-1} - f_p) η_{p-1} + ... + (f_1 - f_2) η_1

    Each ``f_i`` is one RQ-tree-LB reliability-search query, so a spread
    evaluation costs ``p`` fast index queries instead of ``K`` graph
    samples.
    """
    seed_list = list(dict.fromkeys(seeds))
    if not seed_list:
        raise EmptySourceSetError()
    thresholds = sorted(thresholds)
    if not thresholds:
        raise ValueError("at least one threshold is required")
    sizes: List[int] = [
        len(engine.query(seed_list, eta, method="lb").nodes)
        for eta in thresholds
    ]
    spread = sizes[-1] * thresholds[-1]
    for i in range(len(thresholds) - 2, -1, -1):
        spread += max(0, sizes[i] - sizes[i + 1]) * thresholds[i]
    return spread
