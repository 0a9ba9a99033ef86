"""Tests for distance-constrained reliability search (max_hops)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import RQTreeEngine, UncertainGraph, mc_sampling_search
from repro.accel import sample_reach_batch
from repro.graph.exact import exact_hop_reliability
from repro.graph.generators import figure1_graph, uncertain_gnp, uncertain_path
from repro.graph.paths import (
    hop_bounded_path_probabilities,
    most_likely_path_probabilities,
)


class TestHopBoundedPaths:
    def test_path_graph_truncation(self):
        g = uncertain_path([0.9, 0.8, 0.7])
        probs = hop_bounded_path_probabilities(g, [0], max_hops=2)
        assert probs[0] == pytest.approx(1.0)
        assert probs[1] == pytest.approx(0.9)
        assert probs[2] == pytest.approx(0.72)
        assert 3 not in probs

    def test_zero_hops_returns_sources_only(self):
        g = uncertain_path([0.9])
        assert hop_bounded_path_probabilities(g, [0], 0) == {0: 1.0}

    def test_hop_budget_can_force_worse_path(self):
        # Direct arc 0.4 vs two-hop 0.9*0.9 = 0.81: the 1-hop budget must
        # settle for the direct arc.
        g = UncertainGraph(3)
        g.add_arc(0, 2, 0.4)
        g.add_arc(0, 1, 0.9)
        g.add_arc(1, 2, 0.9)
        one_hop = hop_bounded_path_probabilities(g, [0], 1)
        two_hop = hop_bounded_path_probabilities(g, [0], 2)
        assert one_hop[2] == pytest.approx(0.4)
        assert two_hop[2] == pytest.approx(0.81)

    def test_large_budget_matches_dijkstra(self):
        for seed in range(4):
            g = uncertain_gnp(8, 0.3, seed=seed)
            bounded = hop_bounded_path_probabilities(g, [0], max_hops=8)
            exact = most_likely_path_probabilities(g, [0])
            assert set(bounded) == set(exact)
            for node in exact:
                assert bounded[node] == pytest.approx(exact[node])

    def test_monotone_in_budget(self):
        g = uncertain_gnp(8, 0.3, seed=1)
        prev: dict = {}
        for hops in range(5):
            current = hop_bounded_path_probabilities(g, [0], hops)
            for node, p in prev.items():
                assert current.get(node, 0.0) >= p - 1e-12
            prev = current

    def test_min_probability_filter(self):
        g = uncertain_path([0.9, 0.5])
        probs = hop_bounded_path_probabilities(
            g, [0], 5, min_probability=0.6
        )
        assert 2 not in probs  # 0.45 < 0.6
        assert probs[1] == pytest.approx(0.9)

    def test_allowed_restriction(self):
        g = uncertain_path([0.9, 0.9])
        probs = hop_bounded_path_probabilities(g, [0], 5, allowed={0, 2})
        assert 2 not in probs

    def test_negative_budget_rejected(self):
        g = uncertain_path([0.5])
        with pytest.raises(ValueError):
            hop_bounded_path_probabilities(g, [0], -1)


class TestHopBoundedSampling:
    @staticmethod
    def _reached(graph, max_hops):
        batch = sample_reach_batch(
            graph, [0], 1, np.random.default_rng(0), max_hops=max_hops
        )
        return set(batch.nodes[batch.counts > 0].tolist())

    def test_hop_zero_reaches_sources_only(self):
        g = uncertain_path([1.0, 1.0])
        assert self._reached(g, 0) == {0}

    def test_hop_budget_truncates_certain_path(self):
        g = uncertain_path([1.0, 1.0, 1.0])
        assert self._reached(g, 2) == {0, 1, 2}

    def test_unbounded_equals_none(self):
        g = uncertain_path([1.0, 1.0, 1.0])
        assert self._reached(g, None) == {0, 1, 2, 3}

    def test_frequency_matches_exact_hop_reliability(self):
        g, names = figure1_graph()
        trials = 4000
        batch = sample_reach_batch(
            g, [names["s"]], trials, np.random.default_rng(3), max_hops=1
        )
        hits = int(batch.counts[names["u"]])
        exact = exact_hop_reliability(g, [names["s"]], names["u"], 1)
        assert hits / trials == pytest.approx(exact, abs=0.03)


class TestEngineMaxHops:
    def test_lb_hop_query_on_path(self):
        g = uncertain_path([0.9, 0.9, 0.9])
        engine = RQTreeEngine.build(g, seed=0)
        assert engine.query(0, 0.5, max_hops=1).nodes == {0, 1}
        assert engine.query(0, 0.5, max_hops=2).nodes == {0, 1, 2}

    def test_mc_hop_query_matches_exact(self):
        g, names = figure1_graph()
        engine = RQTreeEngine.build(g, seed=0)
        # eta = 0.45 keeps every node's 1-hop reliability safely away
        # from the threshold (u: 0.5, w: 0.6, v/t: 0), so sampling noise
        # cannot flip membership.
        result = engine.query(
            names["s"], 0.45, method="mc", num_samples=4000, seed=1,
            max_hops=1,
        )
        expected = {
            t
            for t in range(5)
            if exact_hop_reliability(g, [names["s"]], t, 1) >= 0.45
            or t == names["s"]
        }
        assert result.nodes == expected
        assert expected == {names["s"], names["u"], names["w"]}

    def test_hop_answer_subset_of_unbounded(self):
        for seed in range(3):
            g = uncertain_gnp(10, 0.25, seed=seed)
            engine = RQTreeEngine.build(g, seed=seed)
            unbounded = engine.query(0, 0.4).nodes
            bounded = engine.query(0, 0.4, max_hops=2).nodes
            assert bounded <= unbounded

    def test_lb_hop_answers_never_false_positive(self):
        for seed in range(3):
            g = uncertain_gnp(6, 0.3, seed=seed)
            if g.num_arcs > 16 or g.num_arcs == 0:
                continue
            engine = RQTreeEngine.build(g, seed=seed)
            answer = engine.query(0, 0.4, max_hops=2).nodes
            for t in answer:
                assert exact_hop_reliability(g, [0], t, 2) >= 0.4 - 1e-9

    def test_mc_baseline_hop_variant(self):
        g = uncertain_path([1.0, 1.0, 1.0])
        result = mc_sampling_search(g, 0, 0.5, num_samples=50, seed=0,
                                    max_hops=2)
        assert result.nodes == {0, 1, 2}
