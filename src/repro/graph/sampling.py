"""Possible-world sampling: the one entry point every sampled world takes.

Possible-world semantics (paper, Section 2) interpret an uncertain graph as
a distribution over deterministic subgraphs: world ``G`` keeps each arc
``a`` independently with probability ``p(a)``.
:class:`ReachabilityFrequencyEstimator` tallies per-node hit counts
across ``K`` worlds of the candidate-induced subgraph (paper,
Section 5.2) on the batched kernel of :mod:`repro.accel.mc_kernel`.
The MC-Sampling baseline, RQ-tree-MC verification and the ``lazy`` /
``rss`` / ``exact``-fallback estimators are all thin wrappers over it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Set

import numpy as np

from ..accel import ReachPlan, csr_snapshot, sample_reach_batch
from ..errors import SamplingKernelError
from .uncertain import UncertainGraph

__all__ = ["ReachabilityFrequencyEstimator", "reach_plan"]


def reach_plan(
    graph: UncertainGraph, allowed: Optional[Iterable[int]] = None
) -> ReachPlan:
    """The kernel's plan for *graph* restricted to *allowed*.

    Raises :class:`~repro.errors.SamplingKernelError` when the CSR
    snapshot cannot be taken, like every other kernel failure.
    """
    try:
        return ReachPlan(csr_snapshot(graph), allowed)
    except Exception as error:
        raise SamplingKernelError(error) from error


class ReachabilityFrequencyEstimator:
    """Tallies how often each node is reached across sampled worlds.

    The estimate ``count[t] / K`` is an unbiased estimator of
    ``R(S, t)`` (paper, Eq. 2).  Thresholding the counts at ``eta * K``
    answers a reliability-search query the way the MC-Sampling baseline
    does.  Deterministic per seed: worlds are drawn from
    ``numpy.random.default_rng(seed)`` over the candidate subgraph in
    ascending node-id order.

    Parameters
    ----------
    allowed:
        Restricts sampling to a node set (the candidate-induced
        subgraph); ``None`` samples the whole graph.
    max_hops:
        Optional hop budget (distance-constrained reachability, Jin et
        al. [20]).
    plan:
        A prebuilt :class:`~repro.accel.ReachPlan` to sample instead of
        the *allowed* subgraph (recursive stratified sampling passes
        one stratum's plan per estimator).

    The plan is extracted on the first :meth:`run` and reused by every
    later one, so chunked callers pay for it once.  Any failure of the
    kernel raises :class:`~repro.errors.SamplingKernelError`; the
    estimator's tallies are then left as they were before the call.
    """

    def __init__(
        self,
        graph: UncertainGraph,
        sources: Sequence[int],
        seed: Optional[int] = None,
        allowed: Optional[Iterable[int]] = None,
        max_hops: Optional[int] = None,
        plan: Optional[ReachPlan] = None,
    ) -> None:
        self._graph = graph
        self._sources = list(sources)
        self._allowed = allowed
        self._max_hops = max_hops
        self._plan = plan
        self._rng = np.random.default_rng(seed)
        self._counts: Optional[np.ndarray] = None
        self._num_worlds = 0

    @property
    def backend(self) -> str:
        """The sampler behind :meth:`run`; there is exactly one."""
        return "numpy"

    @property
    def num_worlds(self) -> int:
        """Number of worlds sampled so far."""
        return self._num_worlds

    def counts(self) -> Dict[int, int]:
        """Raw per-node hit counts accumulated so far (nodes reached at
        least once)."""
        if self._counts is None:
            return {}
        hit = self._counts.nonzero()[0]
        return dict(
            zip(self._plan.nodes[hit].tolist(), self._counts[hit].tolist())
        )

    def run(self, num_worlds: int) -> "ReachabilityFrequencyEstimator":
        """Sample *num_worlds* additional worlds, accumulating counts."""
        if self._plan is None:
            self._plan = reach_plan(self._graph, self._allowed)
        try:
            batch = sample_reach_batch(
                self._plan,
                self._sources,
                num_worlds,
                self._rng,
                max_hops=self._max_hops,
            )
        except Exception as error:
            raise SamplingKernelError(error) from error
        if self._counts is None:
            self._counts = batch.counts
        else:
            self._counts += batch.counts
        self._num_worlds += num_worlds
        return self

    def frequencies(self) -> Dict[int, float]:
        """Per-node empirical reachability frequencies."""
        if self._num_worlds == 0:
            return {}
        k = self._num_worlds
        return {node: count / k for node, count in self.counts().items()}

    def nodes_above(self, eta: float) -> Set[int]:
        """Nodes reached in at least ``ceil(eta * K)`` worlds.

        The paper counts a node as an answer when it is reachable "in a
        fraction of graph instances >= eta * K"; we use the same
        inclusive comparison on the raw counts to avoid floating-point
        drift.
        """
        if self._num_worlds == 0:
            return set()
        threshold = eta * self._num_worlds
        return {
            node
            for node, count in self.counts().items()
            if count >= threshold
        }
