"""Pinned coin stream: seeded sampling results that must not move.

Every value below was computed once and written down.  A change to how
the kernel draws or counts coins must reproduce them exactly: the same
seed must give the same worlds, hence the same hit counts, the same
budgeted verdicts and the same spread estimate.  The fixed graph's BFS
runs both sparse levels (fresh coins for the few arcs the frontier
leaves by) and dense levels (one full coin table), whole-graph and on a
candidate subset, at the worlds-per-call of both benchmark workloads
(K = 1000 and K = 256); the pinned ``accel.kernel_coins`` counts hold
that level mix fixed.

A change that moves the stream on purpose re-pins these values and
says which seeded answers moved.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel import sample_reach_batch
from repro.core.verification import verify_sampling_report
from repro.estimators import EstimateRequest, get_estimator
from repro.graph.generators import uncertain_gnp
from repro.graph.sampling import ReachabilityFrequencyEstimator
from repro.influence.spread import expected_spread_mc
from repro.resilience import QueryBudget
from repro.service.metrics import MetricsRegistry, set_registry

SOURCES = [0, 1]
#: A breadth-first ball of 24 nodes around the sources.
SUBSET = {
    0, 1, 5, 6, 7, 8, 9, 11, 12, 14, 16, 17,
    20, 22, 25, 27, 29, 30, 31, 35, 39, 40, 42, 46,
}


@pytest.fixture(scope="module")
def graph():
    return uncertain_gnp(48, 2.0 / 48, seed=5)


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    try:
        yield fresh
    finally:
        set_registry(previous)


PINNED_COUNTS = {
    (1000, False): [
        1000, 1000, 219, 0, 246, 683, 421, 506, 497, 696, 369, 708, 739,
        127, 147, 0, 612, 596, 0, 107, 782, 328, 52, 526, 0, 931, 48,
        391, 0, 847, 411, 377, 0, 0, 7, 499, 245, 0, 343, 246, 544, 0,
        538, 537, 170, 0, 762, 180,
    ],
    (1000, True): [
        1000, 1000, 655, 414, 473, 485, 695, 738, 766, 153, 594, 575,
        790, 70, 940, 329, 863, 446, 397, 517, 230, 555, 485, 747,
    ],
    (256, False): [
        256, 256, 56, 0, 58, 175, 115, 128, 132, 188, 113, 187, 190, 26,
        31, 0, 150, 163, 0, 22, 196, 76, 11, 150, 0, 243, 9, 98, 0, 214,
        102, 100, 0, 0, 2, 125, 76, 0, 107, 65, 141, 0, 132, 148, 38, 0,
        191, 58,
    ],
    (256, True): [
        256, 256, 173, 113, 126, 143, 180, 173, 198, 25, 165, 160, 201,
        10, 237, 88, 222, 104, 103, 137, 59, 146, 133, 196,
    ],
}
PINNED_COINS = {
    (1000, False): 111_000,
    (1000, True): 41_000,
    (256, False): 31_488,
    (256, True): 10_240,
}


@pytest.mark.parametrize("num_worlds", [1000, 256])
@pytest.mark.parametrize("restricted", [False, True], ids=["whole", "subset"])
def test_batch_counts_pinned(graph, registry, num_worlds, restricted):
    batch = sample_reach_batch(
        graph, SOURCES, num_worlds, np.random.default_rng(5),
        allowed=SUBSET if restricted else None,
    )
    key = (num_worlds, restricted)
    assert batch.counts.tolist() == PINNED_COUNTS[key]
    assert registry.counter("accel.kernel_coins").value == PINNED_COINS[key]


PINNED_STRATA = [
    [
        119, 119, 82, 55, 59, 57, 85, 88, 83, 16, 78, 75, 99, 7, 110,
        82, 107, 55, 54, 56, 68, 67, 68, 95,
    ],
    [
        107, 107, 70, 46, 54, 55, 84, 81, 78, 18, 75, 67, 83, 10, 97, 0,
        94, 52, 50, 50, 50, 57, 50, 92,
    ],
    [
        132, 132, 98, 54, 66, 78, 94, 97, 110, 16, 85, 77, 103, 7, 127,
        98, 114, 62, 55, 79, 0, 67, 72, 112,
    ],
    [
        119, 119, 83, 43, 46, 61, 73, 89, 88, 16, 64, 60, 92, 7, 110, 0,
        98, 47, 41, 56, 0, 65, 47, 96,
    ],
    [
        130, 130, 92, 55, 52, 63, 90, 95, 89, 20, 88, 76, 101, 8, 119,
        92, 109, 61, 58, 59, 73, 70, 73, 94,
    ],
    [
        118, 118, 74, 52, 52, 62, 86, 84, 84, 20, 75, 70, 90, 10, 109,
        0, 99, 49, 50, 53, 61, 63, 61, 82,
    ],
    [
        145, 145, 94, 62, 72, 80, 103, 108, 114, 14, 81, 82, 111, 7,
        134, 94, 123, 63, 46, 72, 0, 76, 80, 103,
    ],
    [
        130, 130, 83, 51, 70, 70, 91, 94, 100, 20, 73, 68, 108, 7, 120,
        0, 118, 56, 41, 70, 0, 72, 69, 86,
    ],
]


def test_rss_query_stratum_counts_pinned(graph, monkeypatch):
    seen = []
    original = ReachabilityFrequencyEstimator.stratum_counts

    def spy(self):
        counts = original(self)
        seen.append(counts)
        return counts

    monkeypatch.setattr(
        ReachabilityFrequencyEstimator, "stratum_counts", spy
    )
    report = get_estimator("rss").estimate(EstimateRequest(
        graph=graph, sources=SOURCES, eta=0.3, candidates=set(SUBSET),
        num_samples=1000, seed=7,
    ))
    assert report.worlds_used == 1000
    assert len(seen) == 1
    assert seen[0].tolist() == PINNED_STRATA


#: Nodes settled early by the Wilson test at eta = 0.5 (chunks of
#: 256, 256, 256 and 232 worlds) and, for the rest, by the count
#: threshold once the 1000-world cap is spent.
PINNED_CONFIRMED = {0, 1, 5, 8, 9, 11, 12, 16, 17, 20, 25, 29, 35, 40, 42, 46}
PINNED_ESTIMATES = {
    0: 1.0, 1: 1.0, 5: 0.663, 6: 0.44, 7: 0.461, 8: 0.518, 9: 0.715,
    11: 0.724, 12: 0.765, 14: 0.119, 16: 0.604, 17: 0.614, 20: 0.78,
    22: 0.046, 25: 0.929, 27: 0.365, 29: 0.854, 30: 0.416, 31: 0.382,
    35: 0.511, 39: 0.253, 40: 0.53, 42: 0.525, 46: 0.756,
}


def test_budgeted_mc_statuses_pinned(graph):
    report = verify_sampling_report(
        graph, SOURCES, 0.5, set(SUBSET), num_samples=1000, seed=11,
        budget=QueryBudget(max_worlds=1000),
    )
    assert report.worlds_used == 1000
    assert not report.degraded
    assert report.statuses == {
        node: "confirmed" if node in PINNED_CONFIRMED else "rejected"
        for node in SUBSET
    }
    assert report.estimates == PINNED_ESTIMATES


def test_expected_spread_mc_pinned(graph):
    assert expected_spread_mc(graph, SOURCES, 1000, seed=3) == 17.818
