"""Verification — the screening phase (paper, Section 5).

The candidate set contains no false negatives but may contain false
positives; verification filters them:

* :func:`verify_lower_bound` (Section 5.1, ``RQ-tree-LB``) keeps only
  candidates whose *most-likely-path* probability from the sources is at
  least ``η`` (Theorem 4).  Since ``L_R(S, t) ≤ R(S, t)``, every kept
  node truly satisfies the query — **perfect precision** — and the
  computation is one multi-source Dijkstra on the candidate-induced
  subgraph: no sampling at all.

* :func:`verify_sampling` (Section 5.2, ``RQ-tree-MC``) Monte-Carlo
  samples the candidate-induced subgraph only, keeping candidates
  reached in at least ``η K`` of ``K`` worlds.  Better recall than the
  lower bound, small (bounded) loss of precision, cost tunable through
  ``K``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..errors import (
    EmptySourceSetError,
    InvalidThresholdError,
    QueryDeadlineError,
)
from ..graph.paths import (
    hop_bounded_path_probabilities,
    most_likely_path,
    most_likely_path_probabilities,
)
from ..graph.sampling import ReachabilityFrequencyEstimator
from ..graph.uncertain import UncertainGraph
from ..resilience.budget import (
    CONFIRMED,
    REJECTED,
    UNVERIFIED,
    BudgetClock,
    QueryBudget,
    wilson_bounds,
)

__all__ = [
    "VerificationReport",
    "verify_lower_bound",
    "verify_lower_bound_report",
    "verify_lower_bound_packing",
    "packing_bounds",
    "verify_sampling",
    "verify_sampling_report",
]

#: Worlds per chunk of budgeted MC verification: a multiple of the
#: kernel's 64-world words, small enough that deadline checks and
#: early-stopping tests run every few milliseconds of sampling.
_BUDGET_CHUNK_WORLDS = 256

#: Relative tolerance when comparing a path probability against eta;
#: compensates for the exp(log(...)) round trip in the Dijkstra weights.
_ETA_SLACK = 1e-9


def _record_verify_metrics(worlds: int) -> None:
    """Count one MC verification pass in the service metrics registry."""
    from ..service.metrics import get_registry

    registry = get_registry()
    registry.counter("verify.mc_passes").inc()
    registry.counter("verify.worlds").inc(worlds)


def _check(eta: float, sources: Sequence[int]) -> Set[int]:
    if math.isnan(eta) or not 0.0 < eta < 1.0:
        raise InvalidThresholdError(eta, context="verification")
    source_set = set(sources)
    if not source_set:
        raise EmptySourceSetError()
    return source_set


@dataclass
class VerificationReport:
    """Outcome of one verification phase, with per-node statuses.

    Attributes
    ----------
    kept:
        The answer set — exactly the nodes whose status is
        :data:`~repro.resilience.CONFIRMED`.
    statuses:
        Every candidate mapped to ``confirmed`` / ``rejected`` /
        ``unverified-candidate``.  Unverified nodes only appear under a
        budget (deadline expiry or the candidate-subgraph cap); they
        are still candidates — filtering admits no false negatives —
        just unscreened ones.
    degraded / degraded_reason:
        Whether the budget forced a partial answer, and why.
    worlds_used:
        Worlds actually sampled (MC only; 0 for the lower-bound
        verifiers).
    estimates:
        Optional per-node reliability point estimates or certified
        lower bounds (estimator-dependent; empty when the verifier does
        not produce them).  MC-style verifiers report observed
        frequencies, the lower-bound pass reports path-probability
        bounds for nodes above the cutoff, and the exact estimator
        reports exact subgraph reliabilities.
    """

    kept: Set[int]
    statuses: Dict[int, str] = field(default_factory=dict)
    degraded: bool = False
    degraded_reason: Optional[str] = None
    worlds_used: int = 0
    estimates: Dict[int, float] = field(default_factory=dict)
    #: Name of the estimator that actually produced this report (set by
    #: the :mod:`repro.estimators` layer; ``""`` when a verifier was
    #: called directly).  Differs from the requested method when an
    #: estimator fell back — see ``notes``.
    estimator: str = ""
    #: Free-form annotation of non-degrading events (e.g. the exact
    #: estimator's treewidth-cap fallback to sampling).
    notes: Optional[str] = None

    @property
    def unverified(self) -> Set[int]:
        """Candidates the budget ran out on."""
        return {n for n, s in self.statuses.items() if s == UNVERIFIED}

    @property
    def achieved_confidence(self) -> float:
        """Fraction of candidates that received a definitive verdict
        (1.0 for unbudgeted runs)."""
        if not self.statuses:
            return 1.0
        decided = sum(1 for s in self.statuses.values() if s != UNVERIFIED)
        return decided / len(self.statuses)


def _verification_subset(
    source_set: Set[int],
    candidates: Set[int],
    clock: Optional[BudgetClock],
) -> Tuple[Set[int], Set[int]]:
    """Apply the budget's candidate-subgraph cap.

    Returns ``(subset, dropped)``: the nodes verification will process
    and the overflow reported as unverified.  Sources are kept first
    (they are answers by definition), then ascending node id — a
    deterministic choice so budgeted queries are reproducible.
    """
    cap = None if clock is None else clock.budget.max_candidate_nodes
    if cap is None or len(candidates) <= cap:
        return candidates, set()
    subset = set(source_set & candidates)
    for node in sorted(candidates):
        if len(subset) >= cap:
            break
        subset.add(node)
    return subset, candidates - subset


def _raise_if_partial(
    report: VerificationReport, clock: Optional[BudgetClock]
) -> Set[int]:
    """Guard for the set-returning verifiers: a plain ``Set[int]``
    cannot distinguish *rejected* from *ran out of budget*, so a partial
    report raises :class:`QueryDeadlineError` instead of silently
    under-answering.  (The engine uses the ``*_report`` variants, which
    degrade gracefully.)"""
    if report.unverified:
        elapsed = 0.0 if clock is None else clock.elapsed()
        deadline = (
            math.inf
            if clock is None or clock.budget.deadline_seconds is None
            else clock.budget.deadline_seconds
        )
        raise QueryDeadlineError(elapsed, deadline)
    return report.kept


def verify_lower_bound(
    graph: UncertainGraph,
    sources: Sequence[int],
    eta: float,
    candidates: Set[int],
    max_hops: Optional[int] = None,
    budget: Optional[Union[QueryBudget, BudgetClock]] = None,
) -> Set[int]:
    """Keep candidates whose most-likely-path probability is >= eta.

    Paths are restricted to the candidate set: the candidate-generation
    guarantee makes every pruned node's reliability (and hence every
    path through it that the verifier could have used) fall below
    ``eta``, so the restriction loses nothing (Section 5.1).

    Source nodes inside the candidate set are always kept
    (``R(S, s) = 1``).

    With *max_hops* set, the verifier answers the distance-constrained
    variant (Jin et al. [20]): only paths of at most *max_hops* arcs
    count, computed by a layered hop-bounded relaxation instead of
    Dijkstra.  The lower-bound property (Theorem 4) carries over
    verbatim because a length-bounded path is still a single path.

    With a *budget* that runs out before every candidate is screened,
    this set-returning form raises :class:`QueryDeadlineError` (it has
    no way to flag the unscreened rest); use
    :func:`verify_lower_bound_report` for graceful partial answers.
    """
    clock = BudgetClock.ensure(budget)
    report = verify_lower_bound_report(
        graph, sources, eta, candidates, max_hops=max_hops, budget=clock
    )
    return _raise_if_partial(report, clock)


def verify_lower_bound_report(
    graph: UncertainGraph,
    sources: Sequence[int],
    eta: float,
    candidates: Set[int],
    max_hops: Optional[int] = None,
    budget: Optional[Union[QueryBudget, BudgetClock]] = None,
) -> VerificationReport:
    """:func:`verify_lower_bound` with per-node statuses and graceful
    budget handling.

    The most-likely-path pass is one bulk multi-source Dijkstra — too
    coarse to interrupt — so the deadline is honoured at phase
    granularity: an already-expired budget skips the pass entirely and
    reports every non-source candidate :data:`UNVERIFIED` (sources stay
    :data:`CONFIRMED`; ``R(S, s) = 1`` needs no computation).  The
    budget's ``max_candidate_nodes`` cap restricts the Dijkstra to a
    subset, which keeps the bound sound (fewer paths available, so the
    bound can only shrink) — capped-out candidates are likewise
    reported unverified rather than rejected.
    """
    source_set = _check(eta, sources)
    clock = BudgetClock.ensure(budget)
    subset, dropped = _verification_subset(source_set, candidates, clock)
    statuses: Dict[int, str] = {node: UNVERIFIED for node in dropped}

    if clock is not None and clock.expired():
        for node in subset:
            statuses[node] = (
                CONFIRMED if node in source_set else UNVERIFIED
            )
        kept = {n for n, s in statuses.items() if s == CONFIRMED}
        return VerificationReport(
            kept=kept,
            statuses=statuses,
            degraded=True,
            degraded_reason="deadline expired before verification",
        )

    cutoff = eta * (1.0 - _ETA_SLACK)
    if max_hops is None:
        probabilities = most_likely_path_probabilities(
            graph,
            source_set & subset,
            allowed=subset,
            min_probability=cutoff,
        )
    else:
        probabilities = hop_bounded_path_probabilities(
            graph,
            source_set & subset,
            max_hops,
            allowed=subset,
            min_probability=cutoff,
        )
    kept = {
        node
        for node, probability in probabilities.items()
        if probability >= cutoff
    }
    for node in subset:
        statuses[node] = CONFIRMED if node in kept else REJECTED
    return VerificationReport(
        kept=kept,
        statuses=statuses,
        degraded=bool(dropped),
        degraded_reason=(
            "candidate-subgraph cap left candidates unverified"
            if dropped else None
        ),
        estimates=dict(probabilities),
    )


def verify_lower_bound_packing(
    graph: UncertainGraph,
    sources: Sequence[int],
    eta: float,
    candidates: Set[int],
    max_paths: int = 3,
) -> Set[int]:
    """Edge-packing verification: RQ-tree-LB with better recall.

    An extension of the Section 5.1 verifier using the classical
    edge-packing lower bound (Brecht & Colbourn; cited by the paper as
    too expensive on the *whole* network, but cheap on candidate
    subgraphs): for each candidate, greedily extract up to *max_paths*
    **arc-disjoint** most-likely paths from ``S``.  Arc-disjoint paths
    depend on disjoint sets of independent coins, so their existence
    events are independent and

    .. math::

        R(S, t) \\ge 1 - \\prod_i (1 - \\prod_{a \\in P_i} p(a))

    is a certified lower bound that dominates the single-path bound —
    every node RQ-tree-LB keeps is kept, plus multipath-reliable nodes
    the single path misses.  Precision remains perfect.

    Cost: up to ``max_paths`` Dijkstra runs per *undecided* candidate
    (nodes already certified by the bulk single-path pass are skipped),
    all restricted to the candidate subgraph.
    """
    kept, _ = packing_bounds(graph, sources, eta, candidates, max_paths)
    return kept


def packing_bounds(
    graph: UncertainGraph,
    sources: Sequence[int],
    eta: float,
    candidates: Set[int],
    max_paths: int = 3,
) -> Tuple[Set[int], Dict[int, float]]:
    """Packing verification plus the per-node certified lower bounds.

    Same algorithm as :func:`verify_lower_bound_packing`; additionally
    returns the best certified bound computed for each candidate (the
    single-path probability, improved to the packing bound wherever the
    packing pass ran).  Skipped candidates keep their single-path value
    — still a valid lower bound, just not the tightest one the packing
    could prove.
    """
    source_set = _check(eta, sources)
    if max_paths < 1:
        raise ValueError(f"max_paths must be >= 1, got {max_paths}")
    threshold = eta * (1.0 - _ETA_SLACK)
    present_sources = source_set & candidates
    # Bulk single-path pass first (cheap); also yields the best single
    # path probability of every undecided candidate.
    single = most_likely_path_probabilities(
        graph, present_sources, allowed=candidates
    )
    bounds = {t: single.get(t, 0.0) for t in candidates}
    kept = {t for t, p in single.items() if p >= threshold}
    if max_paths == 1:
        return kept, bounds
    for t in sorted(candidates - kept):
        best = single.get(t, 0.0)
        if best <= 0.0:
            continue  # unreachable inside the candidate set
        # Sound skip: every packed path is at most as likely as the best
        # single path, so the packing bound cannot exceed
        # 1 - (1 - best)^max_paths; candidates that fall short even in
        # that optimistic case need no Dijkstra at all.
        if 1.0 - (1.0 - best) ** max_paths < threshold:
            continue
        failure = 1.0
        banned: Set[tuple] = set()
        for _ in range(max_paths):
            probability, path = most_likely_path(
                graph,
                present_sources,
                t,
                allowed=candidates,
                banned_arcs=banned,
            )
            if probability <= 0.0:
                break
            failure *= 1.0 - probability
            if 1.0 - failure >= threshold:
                break
            banned.update(zip(path, path[1:]))
        bounds[t] = max(bounds[t], 1.0 - failure)
        if 1.0 - failure >= threshold:
            kept.add(t)
    return kept, bounds


def verify_sampling(
    graph: UncertainGraph,
    sources: Sequence[int],
    eta: float,
    candidates: Set[int],
    num_samples: int = 1000,
    seed: Optional[int] = None,
    max_hops: Optional[int] = None,
    budget: Optional[Union[QueryBudget, BudgetClock]] = None,
) -> Set[int]:
    """Monte-Carlo verification on the candidate-induced subgraph.

    Samples ``num_samples`` worlds of the candidate-induced subgraph
    only (the batched kernel of :mod:`repro.accel` never touches a node
    outside the candidate set), and keeps candidates reached in at
    least ``eta * num_samples`` worlds.  The sample count is the paper's
    efficiency/accuracy knob (Section 5.2); the paper's experiments use
    ``K = 1000``.

    With a *budget* that runs out before every candidate is decided,
    this set-returning form raises :class:`QueryDeadlineError`; use
    :func:`verify_sampling_report` for graceful partial answers.
    """
    clock = BudgetClock.ensure(budget)
    report = verify_sampling_report(
        graph, sources, eta, candidates,
        num_samples=num_samples, seed=seed, max_hops=max_hops,
        budget=clock,
    )
    return _raise_if_partial(report, clock)


def verify_sampling_report(
    graph: UncertainGraph,
    sources: Sequence[int],
    eta: float,
    candidates: Set[int],
    num_samples: int = 1000,
    seed: Optional[int] = None,
    max_hops: Optional[int] = None,
    budget: Optional[Union[QueryBudget, BudgetClock]] = None,
) -> VerificationReport:
    """:func:`verify_sampling` with per-node statuses, chunked sampling,
    early stopping, and graceful budget handling.

    Without a budget this is *exactly* the seed behaviour: one
    ``estimator.run(K)`` call (so the random stream is consumed
    identically) thresholded at ``eta * K``, every candidate reported
    confirmed or rejected.

    With a budget, sampling proceeds in chunks of
    :data:`_BUDGET_CHUNK_WORLDS` worlds on one continuous estimator
    stream (the candidate subgraph is extracted once for all chunks).
    After each chunk every still-undecided candidate's Wilson score
    interval (at the budget's confidence level) is tested against
    ``eta``: an interval clear of ``eta`` settles the node early, and
    sampling stops as soon as no node is undecided — reliabilities far
    from the threshold are typically settled within a chunk or two.
    On deadline expiry (or the ``max_worlds`` cap) the loop stops where
    it is; decided nodes keep their verdicts, the rest are reported
    :data:`UNVERIFIED`, and the report is marked degraded.  A run whose
    world cap is exhausted *without* the deadline expiring settles the
    remaining undecided nodes by the seed's count-threshold rule — that
    is a completed (coarser) estimate, not a partial one.
    """
    source_set = _check(eta, sources)
    if num_samples <= 0:
        raise ValueError(f"num_samples must be positive, got {num_samples}")
    clock = BudgetClock.ensure(budget)
    subset, dropped = _verification_subset(source_set, candidates, clock)
    statuses: Dict[int, str] = {node: UNVERIFIED for node in dropped}
    present_sources = source_set & subset
    estimator = ReachabilityFrequencyEstimator(
        graph,
        sorted(present_sources),
        seed=seed,
        allowed=subset,
        max_hops=max_hops,
    )

    # The estimator counts hits per node in ascending node-id order.
    nodes = sorted(subset)

    def settle(index: np.ndarray, confirmed: np.ndarray) -> None:
        statuses.update(zip(
            [nodes[i] for i in index.tolist()],
            [CONFIRMED if c else REJECTED for c in confirmed.tolist()],
        ))

    if clock is None:
        estimator.run(num_samples)
        # The count-threshold rule: reached in at least eta * K worlds.
        confirmed = estimator.hits() >= eta * num_samples
        settle(np.arange(len(nodes)), confirmed)
        _record_verify_metrics(num_samples)
        return VerificationReport(
            kept={nodes[i] for i in np.flatnonzero(confirmed).tolist()},
            statuses=statuses,
            worlds_used=num_samples,
            estimates=estimator.frequencies(),
        )

    target = num_samples
    if clock.budget.max_worlds is not None:
        target = min(target, clock.budget.max_worlds)
    confidence = clock.budget.confidence
    # Sources are answers by definition (R(S, s) = 1): confirm them up
    # front so a zero-world degraded run still reports them correctly.
    for node in present_sources:
        statuses[node] = CONFIRMED
    undecided = np.array(
        [i for i, node in enumerate(nodes) if node not in present_sources],
        dtype=np.int64,
    )
    done = 0
    while done < target and undecided.size and not clock.expired():
        step = min(_BUDGET_CHUNK_WORLDS, target - done)
        estimator.run(step)
        done += step
        low, high = wilson_bounds(
            estimator.hits()[undecided], done, confidence
        )
        confirmed = low > eta
        decided = confirmed | (high < eta)
        settle(undecided[decided], confirmed[decided])
        undecided = undecided[~decided]

    degraded_reason: Optional[str] = None
    if undecided.size:
        if done >= target:
            # World budget exhausted with time to spare: fall back to
            # the seed's count-threshold rule — a completed estimate at
            # reduced sample size, not a partial answer.
            settle(undecided, estimator.hits()[undecided] >= eta * done)
            undecided = undecided[:0]
        else:
            statuses.update(
                (nodes[i], UNVERIFIED) for i in undecided.tolist()
            )
            degraded_reason = (
                "deadline expired during MC verification "
                f"({done}/{target} worlds)"
            )
    if dropped and degraded_reason is None:
        degraded_reason = "candidate-subgraph cap left candidates unverified"
    kept = {n for n, s in statuses.items() if s == CONFIRMED}
    _record_verify_metrics(done)
    return VerificationReport(
        kept=kept,
        statuses=statuses,
        degraded=bool(undecided.size) or bool(dropped),
        degraded_reason=degraded_reason,
        worlds_used=done,
        estimates=estimator.frequencies() if done > 0 else {},
    )
