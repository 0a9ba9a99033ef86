"""Query budgets: bounded-cost execution with graceful degradation.

The paper's whole pitch is *bounded-cost* approximate reliability search
— exact reliability is #P-complete, so the RQ-tree trades accuracy for
speed.  :class:`QueryBudget` makes that trade-off explicit at the query
boundary: a wall-clock deadline, a world cap for the MC verifier, and a
cap on the candidate subgraph verification may process.  A budgeted
query never raises on expiry — it returns a partial result in which
every candidate carries one of three statuses:

* :data:`CONFIRMED` — certified (LB) or decided above ``eta`` (MC) to be
  an answer;
* :data:`REJECTED` — decided to fall below ``eta``;
* :data:`UNVERIFIED` — the budget ran out before a verdict; the node is
  still a *candidate* (candidate generation admits no false negatives),
  just an unscreened one.

Budgeted MC verification is chunked and uses the Wilson score interval
(:func:`wilson_interval`) to settle nodes early: once a node's interval
clears ``eta`` on either side at the budget's confidence level, its
verdict is final and sampling can stop as soon as no node is undecided.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Tuple, Union

__all__ = [
    "CONFIRMED",
    "REJECTED",
    "UNVERIFIED",
    "QueryBudget",
    "BudgetClock",
    "wilson_interval",
]

#: Per-node verification statuses reported by budgeted queries.
CONFIRMED = "confirmed"
REJECTED = "rejected"
UNVERIFIED = "unverified-candidate"

#: z-scores for the confidence levels budgeted MC supports out of the
#: box; other levels fall back to a rational approximation.
_Z_TABLE = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


def _z_score(confidence: float) -> float:
    try:
        return _Z_TABLE[round(confidence, 4)]
    except KeyError:
        pass
    # Beasley-Springer-Moro-lite: accurate to ~1e-3 over (0.5, 0.9995),
    # plenty for an early-stopping heuristic whose soundness does not
    # depend on the exact z.
    p = 1.0 - (1.0 - confidence) / 2.0
    t = math.sqrt(-2.0 * math.log(1.0 - p))
    return t - (2.30753 + 0.27061 * t) / (1.0 + 0.99229 * t + 0.04481 * t * t)


def wilson_interval(hits: int, trials: int, confidence: float = 0.95
                    ) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the normal approximation because it behaves at the
    extremes (``hits`` near 0 or ``trials``) — exactly where reliability
    verification lives, most candidates being either solidly reachable
    or solidly not.
    """
    if trials <= 0:
        return 0.0, 1.0
    z = _z_score(confidence)
    p_hat = hits / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    centre = (p_hat + z2 / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(
        p_hat * (1.0 - p_hat) / trials + z2 / (4.0 * trials * trials)
    )
    return max(0.0, centre - half), min(1.0, centre + half)


@dataclass(frozen=True)
class QueryBudget:
    """Resource limits for one reliability-search query.

    Parameters
    ----------
    deadline_seconds:
        Wall-clock budget for the whole query (filtering +
        verification).  ``None`` means unlimited.
    max_worlds:
        Cap on the number of possible worlds the MC verifier may
        sample, whatever ``num_samples`` asks for.
    max_candidate_nodes:
        Cap on the candidate-subgraph size verification will process.
        Candidates beyond the cap (sources are kept first, then
        ascending node id) are reported :data:`UNVERIFIED` instead of
        being verified.  The *candidate set itself* is never shrunk —
        that would break the no-false-negatives guarantee.  A sharded
        ``lb`` query builds no candidate subgraph (the gateway's
        truncated pass is its answer), so the cap does not apply to it.
    confidence:
        Confidence level of the per-node early-stopping intervals in
        budgeted MC verification.
    """

    deadline_seconds: Optional[float] = None
    max_worlds: Optional[int] = None
    max_candidate_nodes: Optional[int] = None
    confidence: float = 0.95

    def __post_init__(self) -> None:
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError(
                f"deadline_seconds must be positive, got {self.deadline_seconds}"
            )
        if self.max_worlds is not None and self.max_worlds < 1:
            raise ValueError(
                f"max_worlds must be >= 1, got {self.max_worlds}"
            )
        if self.max_candidate_nodes is not None and self.max_candidate_nodes < 1:
            raise ValueError(
                f"max_candidate_nodes must be >= 1, got {self.max_candidate_nodes}"
            )
        if not 0.5 < self.confidence < 1.0:
            raise ValueError(
                f"confidence must be in (0.5, 1), got {self.confidence}"
            )

    def start(self) -> "BudgetClock":
        """Start the wall clock; the returned clock is what the pipeline
        threads through its phases, so the deadline spans all of them."""
        return BudgetClock(self)


class BudgetClock:
    """A started :class:`QueryBudget`: limits plus an anchored clock."""

    __slots__ = ("budget", "started_at")

    def __init__(self, budget: QueryBudget) -> None:
        self.budget = budget
        self.started_at = time.perf_counter()

    @staticmethod
    def ensure(
        budget: Union["QueryBudget", "BudgetClock", None]
    ) -> Optional["BudgetClock"]:
        """Normalize a ``budget=`` argument: accept a plain
        :class:`QueryBudget` (started now) or an already-running clock
        (shared across pipeline phases)."""
        if budget is None or isinstance(budget, BudgetClock):
            return budget
        return budget.start()

    def elapsed(self) -> float:
        """Seconds since the budget was started."""
        return time.perf_counter() - self.started_at

    def expired(self) -> bool:
        """Whether the wall-clock deadline has passed."""
        deadline = self.budget.deadline_seconds
        return deadline is not None and self.elapsed() >= deadline

    def remaining_seconds(self) -> float:
        """Seconds left before the deadline (``inf`` if none)."""
        deadline = self.budget.deadline_seconds
        if deadline is None:
            return math.inf
        return max(0.0, deadline - self.elapsed())
