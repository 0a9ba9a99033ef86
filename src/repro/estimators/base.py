"""The estimator strategy interface.

An :class:`Estimator` turns one candidate batch into a
:class:`~repro.core.verification.VerificationReport`: per-node statuses
(confirmed / rejected / unverified), optional per-node reliability
estimates, worlds used, and an achieved confidence.  The engine, the
detection helpers, the serving layer, and the sharded gateway all
dispatch through this interface (via :mod:`repro.estimators.registry`)
instead of hard-wiring method names.

Capabilities are plain class attributes so the registry can answer
questions like "which methods support ``max_hops``?" and "is this
method deterministic at this seed?" without instantiating anything
special — the caching layers key cacheability off
:meth:`Estimator.is_deterministic`.
"""

from __future__ import annotations

import abc
import logging
from dataclasses import dataclass, field, replace
from typing import List, Optional, Set

from ..errors import SamplingKernelError
from ..graph.uncertain import UncertainGraph
from ..resilience.budget import CONFIRMED, UNVERIFIED, BudgetClock
from ..core.verification import VerificationReport
from .config import DEFAULT_CONFIG, PortfolioConfig
from .stats import SubgraphStats

__all__ = ["EstimateRequest", "Estimator", "expired_report", "run_estimate"]

#: Structured warnings about degraded execution (kernel failures).
_LOGGER = logging.getLogger("repro.resilience")


@dataclass
class EstimateRequest:
    """Everything an estimator needs to verify one candidate batch.

    The fields mirror :meth:`repro.core.engine.RQTreeEngine.query`
    verbatim — the engine builds one request per query and hands it to
    whichever estimator the planner (or the explicit ``method=``) chose.
    """

    graph: UncertainGraph
    sources: List[int]
    eta: float
    candidates: Set[int]
    num_samples: int = 1000
    seed: Optional[int] = None
    max_hops: Optional[int] = None
    clock: Optional[BudgetClock] = None
    config: PortfolioConfig = field(default_factory=lambda: DEFAULT_CONFIG)

    def with_(self, **changes: object) -> "EstimateRequest":
        """A copy with *changes* applied (dataclass ``replace``)."""
        return replace(self, **changes)


def expired_report(
    sources: List[int], candidates: Set[int], reason: str
) -> VerificationReport:
    """The degraded answer every estimator returns when the budget clock
    is already expired: sources confirmed (``R(S, s) = 1`` needs no
    computation), everything else unverified."""
    source_set = set(sources)
    statuses = {
        node: (CONFIRMED if node in source_set else UNVERIFIED)
        for node in candidates
    }
    return VerificationReport(
        kept={n for n, s in statuses.items() if s == CONFIRMED},
        statuses=statuses,
        degraded=True,
        degraded_reason=reason,
    )


class Estimator(abc.ABC):
    """One verification strategy in the portfolio.

    Subclasses set the capability attributes and implement
    :meth:`cost` (the planner's cost-model hook, predicted seconds) and
    :meth:`estimate` (the actual verification pass).
    """

    #: Registry key and user-facing ``method=`` name.
    name: str = ""
    #: True when the answer is a pure function of the query (no random
    #: stream consumed) — ``lb``, ``lb+`` and ``exact``.
    deterministic_unseeded: bool = False
    #: True when the estimator consumes sampled worlds.
    samples_worlds: bool = False
    #: Whether the distance-constrained variant (``max_hops``) is
    #: supported.
    supports_max_hops: bool = False
    #: True when answers are zero-variance (short-circuits Wilson
    #: stopping entirely).
    exact: bool = False

    def is_deterministic(self, seed: Optional[int]) -> bool:
        """Whether two identical queries are guaranteed identical
        answers — the cacheability criterion."""
        return self.deterministic_unseeded or seed is not None

    def validate(self, request: EstimateRequest) -> None:
        """Reject unsupported request features with the registry-wide
        typed error."""
        if request.max_hops is not None and not self.supports_max_hops:
            from ..errors import InvalidMethodError
            from .registry import methods_supporting_max_hops

            raise InvalidMethodError(
                self.name,
                methods_supporting_max_hops(),
                feature="max_hops",
            )

    @abc.abstractmethod
    def cost(self, stats: SubgraphStats, request: EstimateRequest) -> float:
        """Predicted wall-clock seconds for this batch (planner hook).

        These are crude calibrated models — their job is ranking the
        portfolio on a given subgraph shape, not absolute accuracy; the
        ``planner.cost_error_seconds`` histogram tracks how wrong they
        are in practice so the constants can be tuned against regret.
        """

    @abc.abstractmethod
    def estimate(self, request: EstimateRequest) -> VerificationReport:
        """Verify the candidate batch.

        Implementations must honour the request's budget clock by
        degrading (never raising) and must set ``report.estimator`` to
        the estimator that actually produced the answer (fallbacks
        re-point it).
        """


def run_estimate(
    estimator: Estimator, request: EstimateRequest
) -> VerificationReport:
    """``estimator.estimate(request)``, degrading on a kernel failure.

    Every engine dispatches through here.  A
    :class:`~repro.errors.SamplingKernelError` leaves no tally worth
    keeping, so the answer is the one an expired budget gets
    (:func:`expired_report`): sources confirmed, every other candidate
    unverified, and a reason naming the error.  The failure is logged
    on the ``repro.resilience`` logger; nothing raises.
    """
    try:
        return estimator.estimate(request)
    except SamplingKernelError as error:
        _LOGGER.warning(
            "sampling kernel failed; answer degraded",
            extra={
                "event": "sampling_kernel_failed",
                "estimator": estimator.name,
                "error_type": type(error.error).__name__,
                "error": str(error.error),
            },
        )
        report = expired_report(request.sources, request.candidates, str(error))
        report.estimator = estimator.name
        return report
