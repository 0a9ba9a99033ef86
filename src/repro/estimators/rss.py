"""Recursive stratified sampling estimator (``method="rss"``).

Classic variance reduction for network reliability (Fishman; surveyed
by "An In-Depth Comparison of s-t Reliability Algorithms over Uncertain
Graphs", PAPERS.md): pick the ``r`` highest-variance arcs of the
candidate subgraph as *pivots*, partition the possible-world space into
the ``2^r`` strata fixing each pivot present/absent, and sample each
stratum *conditionally*, with the world budget allocated
proportionally to the stratum weights ``w_s = prod(p_i or 1-p_i)``.
All strata run in one pass of the batched kernel: they are consecutive
world segments of one :meth:`ReachabilityFrequencyEstimator.run
<repro.graph.sampling.ReachabilityFrequencyEstimator.run>` call
(:class:`~repro.accel.Strata`), in which a pivot's coin is 1 where
the segment's stratum has it present and 0 where absent, and the
kernel keeps each segment's hit counts.  No query builds a subgraph,
a CSR snapshot or a second plan.

The combined estimator ``R(t) = sum_s w_s * count_s(t) / q_s`` (``q_s``
worlds in stratum ``s``) is unbiased (law of total probability) and
has strictly lower variance than crude MC whenever the pivots carry
real variance: within each stratum the pivot coins no longer
contribute any.

The pass draws from one stream, ``derive_seed(seed, "estimators.rss")``,
so the whole estimate is deterministic per seed.  The deadline is
checked once, before the pass.
"""

from __future__ import annotations

import itertools
from typing import Dict, List

import numpy as np

from ..accel import Strata
from ..core.verification import (
    _ETA_SLACK,
    VerificationReport,
    _check,
    _verification_subset,
)
from ..graph.sampling import ReachabilityFrequencyEstimator
from ..resilience.budget import CONFIRMED, REJECTED, UNVERIFIED
from ..seeding import derive_seed
from .base import EstimateRequest, Estimator, expired_report
from .montecarlo import predicted_sampling_seconds
from .stats import SubgraphStats

__all__ = ["RecursiveStratifiedEstimator"]


def _allocate(total: int, weights: List[float]) -> List[int]:
    """Deterministic largest-remainder allocation of *total* worlds.

    Every positive-weight stratum gets at least one world (a stratum
    with zero samples would bias the combined estimate by its full
    weight).
    """
    shares = [total * w for w in weights]
    counts = [int(share) for share in shares]
    leftovers = sorted(
        range(len(weights)),
        key=lambda i: (-(shares[i] - counts[i]), i),
    )
    missing = total - sum(counts)
    for i in leftovers[:missing]:
        counts[i] += 1
    return [max(1, c) if w > 0.0 else 0 for c, w in zip(counts, weights)]


class RecursiveStratifiedEstimator(Estimator):
    """Stratified possible-world sampling over high-variance pivot arcs."""

    name = "rss"
    samples_worlds = True
    supports_max_hops = True

    def cost(self, stats: SubgraphStats, request: EstimateRequest) -> float:
        strata = 2 ** min(request.config.rss_pivots, 8)
        # The same worlds as plain MC, split over the strata.  Fitted
        # alongside the MC constants when each stratum paid its own
        # kernel call; kept as they are so the planner's choices stay.
        return predicted_sampling_seconds(stats, request) * 1.4 + (
            strata * 1.9e-4
        )

    def estimate(self, request: EstimateRequest) -> VerificationReport:
        source_set = _check(request.eta, request.sources)
        if request.num_samples <= 0:
            raise ValueError(
                f"num_samples must be positive, got {request.num_samples}"
            )
        clock = request.clock
        if clock is not None and clock.expired():
            report = expired_report(
                request.sources,
                request.candidates,
                "deadline expired before verification",
            )
            report.estimator = self.name
            return report
        subset, dropped = _verification_subset(
            source_set, request.candidates, clock
        )
        statuses: Dict[int, str] = {node: UNVERIFIED for node in dropped}
        present_sources = sorted(source_set & subset)
        cutoff = request.eta * (1.0 - _ETA_SLACK)

        estimator = ReachabilityFrequencyEstimator(
            request.graph,
            present_sources,
            seed=(
                None
                if request.seed is None
                else derive_seed(request.seed, "estimators.rss")
            ),
            allowed=subset,
            max_hops=request.max_hops,
        )
        plan = estimator.plan
        probs = plan.probs_f32.astype(float).tolist()
        heads = plan.nodes[plan.targets].tolist()
        tails = plan.nodes[plan.predecessors].tolist()
        # Pivots: highest-variance arcs (plan arc indices), deterministic
        # tie-break on the arc's global endpoints.
        pivots = sorted(
            (i for i, p in enumerate(probs) if 0.0 < p < 1.0),
            key=lambda i: (-(probs[i] * (1.0 - probs[i])), tails[i], heads[i]),
        )[: max(0, request.config.rss_pivots)]

        worlds = request.num_samples
        if clock is not None and clock.budget.max_worlds is not None:
            worlds = min(worlds, clock.budget.max_worlds)

        assignments = list(
            itertools.product((True, False), repeat=len(pivots))
        )
        weights = []
        for assignment in assignments:
            w = 1.0
            for arc, present in zip(pivots, assignment):
                w *= probs[arc] if present else (1.0 - probs[arc])
            weights.append(w)
        strata = [
            (assignment, weight, quota)
            for assignment, weight, quota in zip(
                assignments, weights, _allocate(worlds, weights)
            )
            if quota > 0
        ]
        worlds_used = sum(quota for _, _, quota in strata)
        estimator.run(
            worlds_used,
            Strata(
                arcs=pivots,
                present=[assignment for assignment, _, _ in strata],
                sizes=[quota for _, _, quota in strata],
            ),
        )
        scale = np.array([weight / quota for _, weight, quota in strata])
        values = scale @ estimator.stratum_counts() / sum(
            weight for _, weight, _ in strata
        )
        estimates: Dict[int, float] = {
            node: value
            for node, value in zip(plan.nodes.tolist(), values.tolist())
            if value > 0.0
        }
        for node in subset:
            statuses[node] = (
                CONFIRMED if estimates.get(node, 0.0) >= cutoff else REJECTED
            )
        for node in present_sources:
            statuses[node] = CONFIRMED
        degraded_reason = (
            "candidate-subgraph cap left candidates unverified"
            if dropped
            else None
        )
        report = VerificationReport(
            kept={n for n, s in statuses.items() if s == CONFIRMED},
            statuses=statuses,
            degraded=degraded_reason is not None,
            degraded_reason=degraded_reason,
            worlds_used=worlds_used,
            estimates=estimates,
        )
        report.estimator = self.name
        return report
