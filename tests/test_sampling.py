"""Unit tests for possible-world sampling."""

from __future__ import annotations

import numpy as np
import pytest

from repro import UncertainGraph
from repro.accel import ReachPlan, csr_snapshot, sample_reach_batch
from repro.accel.mc_kernel import draw_coins
from repro.graph.exact import exact_reliability
from repro.graph.generators import uncertain_path
from repro.graph.sampling import ReachabilityFrequencyEstimator


def _worlds(graph, seed, count):
    """*count* materialized worlds of *graph*: the kernel's coin draw,
    unpacked to one boolean row per world over the plan's arcs."""
    plan = ReachPlan(csr_snapshot(graph))
    packed = draw_coins(np.random.default_rng(seed), plan, count)
    bits = np.unpackbits(packed, axis=1, count=count).T.astype(bool)
    arcs = list(zip(
        plan.nodes[plan.predecessors].tolist(),
        plan.nodes[plan.targets].tolist(),
    ))
    return [[arc for arc, kept in zip(arcs, row) if kept] for row in bits]


def _reached(graph, sources, seed=0, allowed=None, max_hops=None):
    """The node set reached from *sources* in one sampled world."""
    batch = sample_reach_batch(
        graph, sources, 1, np.random.default_rng(seed),
        allowed=allowed, max_hops=max_hops,
    )
    return set(batch.nodes[batch.counts > 0].tolist())


class TestWorldSampler:
    """Whole worlds as the kernel draws them: one coin per plan arc."""

    def test_deterministic_given_seed(self, fig1_graph):
        assert _worlds(fig1_graph, 5, 10) == _worlds(fig1_graph, 5, 10)

    def test_worlds_are_subsets_of_arcs(self, fig1_graph):
        arcs = {(u, v) for u, v, _ in fig1_graph.arcs()}
        for world in _worlds(fig1_graph, 1, 20):
            assert set(world) <= arcs

    def test_certain_arcs_always_present(self):
        g = UncertainGraph(2)
        g.add_arc(0, 1, 1.0)
        for world in _worlds(g, 0, 10):
            assert (0, 1) in world

    def test_arc_frequency_matches_probability(self):
        g = UncertainGraph(2)
        g.add_arc(0, 1, 0.3)
        hits = sum(1 for world in _worlds(g, 3, 4000) if world)
        assert hits / 4000 == pytest.approx(0.3, abs=0.03)

    def test_adjacency_representation(self, fig1_graph):
        # The plan's arcs are exactly the graph's adjacency.
        plan = ReachPlan(csr_snapshot(fig1_graph))
        adjacency = [set() for _ in range(fig1_graph.num_nodes)]
        for u, v in zip(plan.predecessors.tolist(), plan.targets.tolist()):
            adjacency[u].add(v)
        assert len(adjacency) == fig1_graph.num_nodes
        for u, nbrs in enumerate(adjacency):
            assert nbrs == set(fig1_graph.successors(u))


class TestSampleReachable:
    def test_sources_always_included(self, fig1_graph):
        assert 0 in _reached(fig1_graph, [0])

    def test_deterministic_arcs_always_traversed(self):
        g = uncertain_path([1.0, 1.0, 1.0])
        assert _reached(g, [0]) == {0, 1, 2, 3}

    def test_allowed_restriction(self):
        g = uncertain_path([1.0, 1.0, 1.0])
        assert _reached(g, [0], allowed={0, 1}) == {0, 1}

    def test_lazy_frequency_matches_reliability(self, fig1_graph, fig1_names):
        # The sampler must estimate R(s, u) = 0.65 (Example 1).
        batch = sample_reach_batch(
            fig1_graph, [fig1_names["s"]], 4000, np.random.default_rng(7)
        )
        hits = int(batch.counts[fig1_names["u"]])
        assert hits / 4000 == pytest.approx(0.65, abs=0.03)


class TestReachabilityFrequencyEstimator:
    def test_empty_before_running(self, fig1_graph):
        est = ReachabilityFrequencyEstimator(fig1_graph, [0], seed=0)
        assert est.frequencies() == {}
        assert est.nodes_above(0.5) == set()
        assert est.num_worlds == 0

    def test_incremental_runs_accumulate(self, fig1_graph):
        est = ReachabilityFrequencyEstimator(fig1_graph, [0], seed=0)
        est.run(10).run(15)
        assert est.num_worlds == 25

    def test_source_frequency_is_one(self, fig1_graph):
        est = ReachabilityFrequencyEstimator(fig1_graph, [0], seed=0)
        est.run(50)
        assert est.frequencies()[0] == pytest.approx(1.0)

    def test_matches_exact_on_figure1(self, fig1_graph, fig1_names):
        est = ReachabilityFrequencyEstimator(
            fig1_graph, [fig1_names["s"]], seed=11
        )
        est.run(5000)
        freq = est.frequencies()
        for name in ["u", "v", "w", "t"]:
            node = fig1_names[name]
            exact = exact_reliability(fig1_graph, [fig1_names["s"]], node)
            assert freq.get(node, 0.0) == pytest.approx(exact, abs=0.03)

    def test_nodes_above_uses_inclusive_threshold(self):
        g = uncertain_path([1.0])
        est = ReachabilityFrequencyEstimator(g, [0], seed=0)
        est.run(10)
        # Node 1 reached in all 10 worlds; eta = 1.0 is outside the valid
        # query range but the estimator itself accepts it inclusively.
        assert est.nodes_above(1.0) == {0, 1}

    def test_determinism_with_seed(self, fig1_graph):
        a = ReachabilityFrequencyEstimator(fig1_graph, [0], seed=9).run(200)
        b = ReachabilityFrequencyEstimator(fig1_graph, [0], seed=9).run(200)
        assert a.frequencies() == b.frequencies()

    def test_allowed_restriction_respected(self, fig1_graph, fig1_names):
        allowed = {fig1_names["s"], fig1_names["w"]}
        est = ReachabilityFrequencyEstimator(
            fig1_graph, [fig1_names["s"]], seed=0, allowed=allowed
        )
        est.run(100)
        assert set(est.frequencies()) <= allowed
