"""Lazy-propagation BFS-sharing estimator (``method="lazy"``).

Samples all ``K`` worlds in *one shared traversal* instead of ``K``
independent BFS passes ("An In-Depth Comparison of s-t Reliability
Algorithms over Uncertain Graphs", PAPERS.md).  The batched kernel of
:mod:`repro.accel.mc_kernel` is exactly that traversal: every world is
a bit of a packed word, each frontier step advances all of them at
once, and an arc's coins only matter once the traversal reaches its
tail.  Level-synchrony makes a bit's arrival round equal its hop
distance in that world, so the ``max_hops`` variant falls out for free
by capping the rounds.

Every sampler here runs on that kernel, so lazy sampling *is*
:class:`~repro.estimators.montecarlo.MonteCarloEstimator`: same seed,
same worlds, same answer, same cost.  The class keeps the method name
and reports itself as ``"lazy"``; the planner never chooses it over
``mc``, since the two cannot differ.
"""

from __future__ import annotations

from .montecarlo import MonteCarloEstimator

__all__ = ["LazySharingEstimator"]


class LazySharingEstimator(MonteCarloEstimator):
    """``method="lazy"``: the ``mc`` estimator under its own name."""

    name = "lazy"
