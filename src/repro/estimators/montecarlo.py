"""The chunked Monte-Carlo estimator (paper Section 5.2) behind the
portfolio interface.

Delegates to :func:`repro.core.verification.verify_sampling_report`
with an identical call sequence, so the random stream is consumed
exactly as the pre-portfolio engine consumed it: unbudgeted runs are
one ``estimator.run(K)`` call, budgeted runs chunk with Wilson-interval
early stopping.
"""

from __future__ import annotations

from ..core.verification import VerificationReport, verify_sampling_report
from .base import EstimateRequest, Estimator
from .stats import SubgraphStats

__all__ = ["MonteCarloEstimator", "predicted_sampling_seconds"]

#: Per-(node+arc)-per-world cost of the candidate-local kernel, plus a
#: fixed per-run cost (plan extraction, per-chunk array setup).  Fitted
#: by least squares to K = 1000 verification runs on the candidate
#: subgraphs (1 to 2,600 nodes) of single-source queries on BioMine-
#: and NetHEPT-like stand-ins at n = 6,000-8,000.
_WORLD_UNIT = 4.0e-9
_SETUP = 2.5e-4


def predicted_sampling_seconds(
    stats: SubgraphStats, request: EstimateRequest
) -> float:
    """Shared cost model for the per-world sampling estimators."""
    worlds = request.num_samples
    if stats.max_worlds is not None:
        worlds = min(worlds, stats.max_worlds)
    work = stats.num_nodes + stats.num_arcs
    return _WORLD_UNIT * work * worlds + _SETUP


class MonteCarloEstimator(Estimator):
    """RQ-tree-MC: independent per-world sampling with Wilson stopping
    under a budget."""

    name = "mc"
    samples_worlds = True
    supports_max_hops = True

    def cost(self, stats: SubgraphStats, request: EstimateRequest) -> float:
        return predicted_sampling_seconds(stats, request)

    def estimate(self, request: EstimateRequest) -> VerificationReport:
        report = verify_sampling_report(
            request.graph,
            request.sources,
            request.eta,
            request.candidates,
            num_samples=request.num_samples,
            seed=request.seed,
            max_hops=request.max_hops,
            budget=request.clock,
        )
        report.estimator = self.name
        return report
