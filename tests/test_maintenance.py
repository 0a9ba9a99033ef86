"""Tests for cluster splitting, branching factors, and arc updates
applied to a built index (``RQTreeEngine.apply``)."""

from __future__ import annotations

import pytest

from repro import RQTreeEngine, UncertainGraph
from repro.core.builder import build_rqtree, split_cluster
from repro.graph.exact import exact_reliability_search
from repro.graph.generators import nethept_like, uncertain_gnp, uncertain_path


class TestSplitCluster:
    def test_binary_split(self, grid_graph):
        parts = split_cluster(
            grid_graph, set(range(grid_graph.num_nodes)),
            branching=2, max_imbalance=0.1, seed=0, strategy="multilevel",
        )
        assert len(parts) == 2
        assert set().union(*parts) == set(range(grid_graph.num_nodes))

    def test_four_way_split(self, grid_graph):
        parts = split_cluster(
            grid_graph, set(range(grid_graph.num_nodes)),
            branching=4, max_imbalance=0.1, seed=0, strategy="multilevel",
        )
        assert len(parts) == 4
        sizes = sorted(len(p) for p in parts)
        assert sizes[0] >= 1
        union = set().union(*parts)
        assert union == set(range(grid_graph.num_nodes))
        total = sum(len(p) for p in parts)
        assert total == grid_graph.num_nodes  # disjoint

    def test_branching_larger_than_cluster(self, grid_graph):
        parts = split_cluster(
            grid_graph, {0, 1, 2},
            branching=8, max_imbalance=0.1, seed=0, strategy="multilevel",
        )
        assert sorted(len(p) for p in parts) == [1, 1, 1]


class TestBranchingFactor:
    @pytest.mark.parametrize("branching", [2, 3, 4])
    def test_valid_trees(self, branching):
        g = uncertain_gnp(40, 0.15, seed=3)
        tree, _ = build_rqtree(g, seed=0, branching=branching)
        tree.validate()

    def test_higher_branching_gives_shorter_tree(self):
        g = nethept_like(n=200, seed=1)
        tree2, _ = build_rqtree(g, seed=0, branching=2)
        tree4, _ = build_rqtree(g, seed=0, branching=4)
        assert tree4.height <= tree2.height

    def test_branching_below_two_rejected(self):
        g = uncertain_path([0.5])
        with pytest.raises(ValueError):
            build_rqtree(g, branching=1)

    def test_queries_correct_with_branching_four(self):
        for seed in range(3):
            g = uncertain_gnp(7, 0.25, seed=seed)
            if g.num_arcs > 16 or g.num_arcs == 0:
                continue
            tree, _ = build_rqtree(g, seed=seed, branching=4)
            engine = RQTreeEngine(g, tree)
            truth = exact_reliability_search(g, [0], 0.4)
            answer = engine.query(0, 0.4, method="lb").nodes
            assert answer <= truth  # LB: no false positives


class TestDynamicEngine:
    """An engine whose graph changes through ``apply`` while its tree
    stays the one built at start-up."""

    def _fresh(self, n=60, seed=2):
        return RQTreeEngine.build(nethept_like(n=n, seed=seed), seed=seed)

    def _cross_top_split(self, engine, count=12):
        tree = engine.tree
        root = tree.clusters[tree.root]
        left = sorted(tree.clusters[root.children[0]].members)
        right = sorted(tree.clusters[root.children[1]].members)
        engine.apply([
            ("set", left[i % len(left)], right[i % len(right)], 0.8)
            for i in range(count)
        ])
        return left, right

    def test_queries_work_out_of_the_box(self):
        engine = self._fresh()
        result = engine.query(0, 0.5)
        assert 0 in result.nodes

    def test_add_arc_visible_to_queries(self):
        g = UncertainGraph(4)
        g.add_arc(0, 1, 0.9)
        engine = RQTreeEngine.build(g, seed=0)
        assert 3 not in engine.query(0, 0.5).nodes
        assert engine.apply([("set", 1, 3, 0.95)]) == 1
        assert 3 in engine.query(0, 0.5).nodes

    def test_remove_arc_visible_to_queries(self):
        g = UncertainGraph(3)
        g.add_arc(0, 1, 0.9)
        g.add_arc(1, 2, 0.9)
        engine = RQTreeEngine.build(g, seed=0)
        assert 2 in engine.query(0, 0.5).nodes
        assert engine.apply([("delete", 1, 2)]) == 1
        assert 2 not in engine.query(0, 0.5).nodes
        # Deleting an absent arc is a no-op.
        assert engine.apply([("delete", 1, 2)]) == 0

    def test_update_probability(self):
        g = UncertainGraph(2)
        g.add_arc(0, 1, 0.9)
        engine = RQTreeEngine.build(g, seed=0)
        engine.apply([("set", 0, 1, 0.2)])
        assert engine.graph.probability(0, 1) == pytest.approx(0.2)
        assert 1 not in engine.query(0, 0.5).nodes

    def test_rebuilt_index_is_valid_and_correct(self):
        engine = self._fresh(n=40)
        left, _ = self._cross_top_split(engine)
        engine.tree.validate()
        # The start-up tree still answers: a source is always confirmed.
        result = engine.query(left[0], 0.6)
        assert left[0] in result.nodes

    def test_lb_answers_match_static_rebuild(self):
        # After a batch of updates, the engine's LB answers must equal a
        # from-scratch engine's on the same mutated graph (LB answers
        # are clustering-independent).
        engine = self._fresh(n=50)
        for s in (1, 2, 5):
            engine.query(s, 0.5)  # cache bounds that the updates outlive
        engine.apply([("set", 1, 40, 0.9), ("set", 2, 30, 0.7),
                      ("set", 5, 45, 0.6)])
        static = RQTreeEngine.build(engine.graph, seed=11)
        for s in (1, 2, 5):
            assert engine.query(s, 0.5).nodes == static.query(s, 0.5).nodes
