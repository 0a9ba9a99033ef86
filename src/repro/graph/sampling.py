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

from ..accel import ReachPlan, Strata, csr_snapshot, sample_reach_batch
from ..errors import SamplingKernelError
from .uncertain import UncertainGraph

__all__ = ["ReachabilityFrequencyEstimator"]


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

    The plan (:attr:`plan`) is extracted on first use and reused by
    every later :meth:`run`, so chunked callers pay for it once.  Any
    failure of the kernel, or of the CSR snapshot the plan is cut
    from, raises :class:`~repro.errors.SamplingKernelError`; the
    estimator's tallies are then left as they were before the call.
    """

    def __init__(
        self,
        graph: UncertainGraph,
        sources: Sequence[int],
        seed: Optional[int] = None,
        allowed: Optional[Iterable[int]] = None,
        max_hops: Optional[int] = None,
    ) -> None:
        self._graph = graph
        self._sources = list(sources)
        self._allowed = allowed
        self._max_hops = max_hops
        self._plan: Optional[ReachPlan] = None
        self._rng = np.random.default_rng(seed)
        self._counts: Optional[np.ndarray] = None
        self._num_worlds = 0

    @property
    def backend(self) -> str:
        """The sampler behind :meth:`run`; there is exactly one."""
        return "numpy"

    @property
    def plan(self) -> ReachPlan:
        """The kernel's plan for the *allowed* subgraph."""
        if self._plan is None:
            try:
                self._plan = ReachPlan(
                    csr_snapshot(self._graph), self._allowed
                )
            except Exception as error:
                raise SamplingKernelError(error) from error
        return self._plan

    @property
    def num_worlds(self) -> int:
        """Number of worlds sampled so far."""
        return self._num_worlds

    def hits(self) -> np.ndarray:
        """``int64[n_local]``: in how many of the worlds sampled so far
        each plan node was reached, in :attr:`plan` order (ascending
        node id)."""
        if self._counts is None:
            return np.zeros(self.plan.num_nodes, dtype=np.int64)
        return self._counts.sum(axis=0)

    def counts(self) -> Dict[int, int]:
        """Raw per-node hit counts accumulated so far (nodes reached at
        least once)."""
        if self._counts is None:
            return {}
        totals = self.hits()
        hit = totals.nonzero()[0]
        return dict(zip(self._plan.nodes[hit].tolist(), totals[hit].tolist()))

    def stratum_counts(self) -> np.ndarray:
        """``int64[segments, n_local]``: hits per :class:`Strata`
        segment (rows; one row for runs without strata) and plan node
        (columns, :attr:`plan` order), summed over the runs so far."""
        return self._counts.copy()

    def run(
        self, num_worlds: int, strata: Optional[Strata] = None
    ) -> "ReachabilityFrequencyEstimator":
        """Sample *num_worlds* additional worlds, accumulating counts.

        *strata* (over :attr:`plan`'s arcs, sizes adding up to
        *num_worlds*) splits the worlds into segments with fixed
        coins on its arcs and keeps the counts per segment
        (:meth:`stratum_counts`).
        """
        plan = self.plan
        try:
            batch = sample_reach_batch(
                plan,
                self._sources,
                num_worlds,
                self._rng,
                max_hops=self._max_hops,
                strata=strata,
            )
        except Exception as error:
            raise SamplingKernelError(error) from error
        if self._counts is None:
            self._counts = batch.stratum_counts
        else:
            self._counts += batch.stratum_counts
        self._num_worlds += num_worlds
        return self

    def frequencies(self) -> Dict[int, float]:
        """Per-node empirical reachability frequencies."""
        if self._num_worlds == 0:
            return {}
        totals = self.hits()
        hit = totals.nonzero()[0]
        return dict(zip(
            self._plan.nodes[hit].tolist(),
            (totals[hit] / self._num_worlds).tolist(),
        ))

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
