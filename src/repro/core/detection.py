"""Reliability detection and top-k search on top of the RQ-tree engine.

Section 2 of the paper observes that reliability *search* generalizes
two-terminal reliability *detection*: "a simple reduction ... exists.
The idea is to estimate the answer to a given instance of the former
problem by performing a binary search on the threshold η."  This module
implements that reduction — :func:`detect_reliability` brackets
``R(S, t)`` by repeatedly asking whether ``t ∈ RS(S, η)`` — plus two
DB-style conveniences the index makes cheap:

* :func:`reliability_scores` — per-candidate reliability estimates
  (most-likely-path probabilities for the LB method, sampled
  frequencies for MC), the scoring primitive behind ranking;
* :func:`top_k_reliable` — the ``k`` most reliable nodes from a source
  set, found by lowering η geometrically until enough candidates
  qualify and ranking them by score.

None of them can carry a partial answer, so unlike
:meth:`RQTreeEngine.query` they do not degrade on a sampling-kernel
failure: :class:`~repro.errors.SamplingKernelError` propagates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import EmptySourceSetError, NodeNotFoundError
from .engine import RQTreeEngine

__all__ = [
    "DetectionResult",
    "detect_reliability",
    "reliability_scores",
    "top_k_reliable",
]


@dataclass
class DetectionResult:
    """A bracketed two-terminal reliability estimate.

    ``low <= R_est(S, t) < high`` where the estimate is with respect to
    the chosen query method (exact lower-bound semantics for ``"lb"``,
    sampling semantics for ``"mc"``).
    """

    low: float
    high: float
    queries_issued: int

    @property
    def midpoint(self) -> float:
        """The center of the bracket — the point estimate."""
        return (self.low + self.high) / 2.0

    @property
    def width(self) -> float:
        """Bracket width (the achieved tolerance)."""
        return self.high - self.low


def detect_reliability(
    engine: RQTreeEngine,
    sources: Union[int, Sequence[int]],
    target: int,
    tolerance: float = 0.05,
    method: str = "mc",
    num_samples: int = 1000,
    seed: Optional[int] = None,
) -> DetectionResult:
    """Estimate ``R(S, t)`` by binary search on the threshold (§2).

    Each probe asks one reliability-search query ``RS(S, η)`` and tests
    target membership; the bracket halves until its width drops below
    *tolerance*.  With ``method="lb"`` the bracketed quantity is the
    most-likely-path lower bound ``L_R(S, t)`` (deterministic, never
    exceeding the true reliability); with ``method="mc"`` it is the
    sampled reliability estimate.

    Note: this costs ``O(log 1/tolerance)`` index queries, so it is the
    right tool when a *few* pairs must be checked against an existing
    index; bulk detection should use :func:`reliability_scores` once.
    """
    if not 0.0 < tolerance < 1.0:
        raise ValueError(f"tolerance must be in (0, 1), got {tolerance}")
    if target not in engine.graph:
        raise NodeNotFoundError(target)
    source_list = (
        [sources] if isinstance(sources, int) else list(dict.fromkeys(sources))
    )
    if not source_list:
        raise EmptySourceSetError()
    if target in source_list:
        return DetectionResult(low=1.0, high=1.0, queries_issued=0)

    low, high = 0.0, 1.0
    queries = 0
    while high - low > tolerance:
        mid = (low + high) / 2.0
        if not 0.0 < mid < 1.0:  # defensive; cannot occur with tol<1
            break
        report = _verify(engine, source_list, mid, method, num_samples, seed)
        queries += 1
        if target in report.kept:
            low = mid
        else:
            high = mid
    return DetectionResult(low=low, high=high, queries_issued=queries)


def _verify(
    engine: RQTreeEngine,
    source_list: List[int],
    eta: float,
    method: str,
    num_samples: int,
    seed: Optional[int],
    max_hops: Optional[int] = None,
):
    """Candidate generation and verification at *eta*: the estimator's
    report, the same one :meth:`RQTreeEngine.query` answers from.

    A sampling-kernel failure raises
    :class:`~repro.errors.SamplingKernelError` instead of degrading.
    """
    from ..estimators import (
        AUTO,
        EstimateRequest,
        get_estimator,
        validate_method,
    )

    validate_method(method, max_hops=max_hops)
    request = EstimateRequest(
        graph=engine.graph,
        sources=source_list,
        eta=eta,
        candidates=engine.candidates(source_list, eta).candidates,
        num_samples=num_samples,
        seed=seed,
        max_hops=max_hops,
        config=engine.planner.config,
    )
    if method == AUTO:
        name = engine.planner.plan(request).estimator
    else:
        name = method
    return get_estimator(name).estimate(request)


def reliability_scores(
    engine: RQTreeEngine,
    sources: Union[int, Sequence[int]],
    eta: float,
    method: str = "lb",
    num_samples: int = 1000,
    seed: Optional[int] = None,
    max_hops: Optional[int] = None,
) -> Dict[int, float]:
    """Per-node reliability scores over the candidate set at *eta*.

    Runs candidate generation once, then scores every candidate with
    the chosen estimator (any registered ``method``, or ``"auto"`` to
    let the engine's planner pick): the score is the estimator's
    per-node estimate — a certified lower bound for ``lb``/``lb+``, a
    sampled frequency for the sampling estimators, the true subgraph
    reliability for ``exact``.

    Scores of candidates the estimator did not confirm at *eta* are
    filtered, matching query semantics; sources score 1.0.  Unknown
    methods raise :class:`repro.errors.InvalidMethodError`; a
    sampling-kernel failure raises
    :class:`repro.errors.SamplingKernelError`.
    """
    from ..resilience.budget import CONFIRMED

    source_list = (
        [sources] if isinstance(sources, int) else list(dict.fromkeys(sources))
    )
    if not source_list:
        raise EmptySourceSetError()
    report = _verify(
        engine, source_list, eta, method, num_samples, seed, max_hops
    )
    scores = {
        node: report.estimates.get(node, eta)
        for node, status in report.statuses.items()
        if status == CONFIRMED
    }
    for s in source_list:
        scores[s] = 1.0
    return scores


def top_k_reliable(
    engine: RQTreeEngine,
    sources: Union[int, Sequence[int]],
    k: int,
    method: str = "lb",
    num_samples: int = 1000,
    seed: Optional[int] = None,
    eta_floor: float = 0.01,
    include_sources: bool = False,
) -> List[Tuple[int, float]]:
    """The *k* most reliable nodes from the source set, with scores.

    Lowers the threshold geometrically (0.5, 0.25, ...) until at least
    ``k`` non-source nodes qualify or the floor is reached, then ranks
    by score.  Returns at most ``k`` ``(node, score)`` pairs, best
    first (ties broken by node id for determinism).

    This is the k-nearest-neighbours-style query of Potamias et al.
    (cited as [28] in the paper) answered through the RQ-tree.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    source_list = (
        [sources] if isinstance(sources, int) else list(dict.fromkeys(sources))
    )
    if not source_list:
        raise EmptySourceSetError()
    source_set = set(source_list)

    eta = 0.5
    scores: Dict[int, float] = {}
    while True:
        scores = reliability_scores(
            engine, source_list, eta,
            method=method, num_samples=num_samples, seed=seed,
        )
        hits = [n for n in scores if include_sources or n not in source_set]
        if len(hits) >= k or eta <= eta_floor:
            break
        eta = max(eta_floor, eta / 2.0)

    ranked = sorted(
        (
            (node, score)
            for node, score in scores.items()
            if include_sources or node not in source_set
        ),
        key=lambda item: (-item[1], item[0]),
    )
    return ranked[:k]
