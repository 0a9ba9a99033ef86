"""The vectorized world-sampling kernel behind every sampling estimator.

Every sampling-based estimator in the library (MC-Sampling baseline,
RQ-tree-MC verification, the ``lazy`` / ``rss`` estimators, the
``exact`` estimator's fallback, influence spread, reliability
detection) is a tally over K sampled possible worlds.  This package
runs that tally as bulk numpy work on the candidate subgraph:

* :mod:`repro.accel.csr` — immutable CSR snapshots of
  :class:`~repro.graph.uncertain.UncertainGraph`, cached on the graph
  and invalidated on mutation;
* :mod:`repro.accel.mc_kernel` — :class:`ReachPlan` (the candidate
  subgraph in local ids) and the batch-of-worlds frontier-expansion
  kernel :func:`sample_reach_batch` (packed ``uint64`` world bits,
  coins drawn per BFS level for the arcs the frontier leaves by: each
  run draws its own coins from its own ``default_rng(seed)``).

Failure contract
----------------
There is one kernel and no second implementation to retry on.  A
failure inside it — a real defect or a fault injected at the
``"csr.snapshot"`` / ``"mc.kernel.chunk"`` points of
:mod:`repro.resilience.faultinject` — surfaces from
:meth:`repro.graph.sampling.ReachabilityFrequencyEstimator.run` as
:class:`repro.errors.SamplingKernelError`, and the query engines turn
it into a degraded answer (see
:func:`repro.estimators.base.run_estimate`): sources confirmed, the
other candidates unverified, and a reason naming the error.  Detection
and ranking (:mod:`repro.core.detection`), which cannot carry a partial
answer, let it propagate.
"""

from __future__ import annotations

from .csr import CSRGraph, csr_snapshot
from .mc_kernel import BatchReachResult, ReachPlan, Strata, sample_reach_batch

__all__ = [
    "CSRGraph",
    "csr_snapshot",
    "BatchReachResult",
    "ReachPlan",
    "Strata",
    "sample_reach_batch",
]
