"""Failure-injection tests: corrupted inputs must fail loudly and early.

A production library's error behaviour is part of its contract: a
corrupted index or malformed graph file must raise a typed, descriptive
exception at load time — never return silently wrong query answers.
"""

from __future__ import annotations

import json

import pytest

from repro import RQTree, RQTreeEngine, UncertainGraph
from repro.errors import (
    GraphError,
    IndexCorruptionError,
    InvalidProbabilityError,
)
from repro.graph.generators import nethept_like, uncertain_path
from repro.graph.io import graph_from_json, read_edge_list


@pytest.fixture()
def valid_tree_doc():
    graph = nethept_like(n=20, seed=0)
    engine = RQTreeEngine.build(graph, seed=0)
    return engine.tree.to_json()


class TestCorruptedIndexDocuments:
    def test_rewired_leaf_is_merely_a_different_valid_tree(
        self, valid_tree_doc
    ):
        # Moving a leaf under another parent yields a *different* but
        # still structurally valid hierarchy (any partition hierarchy
        # is a legal RQ-tree) — the loader must accept it.  This pins
        # down the intended semantics: structure corruption means
        # violated invariants, not merely unexpected shapes.
        doc = json.loads(json.dumps(valid_tree_doc))
        leaves = [
            i for i, members in enumerate(doc["leaf_members"])
            if members is not None
        ]
        moved = leaves[-1]
        target_parent = doc["parents"][leaves[0]]
        if doc["parents"][moved] == target_parent:
            target_parent = doc["parents"][leaves[1]]
        doc["parents"][moved] = target_parent
        tree = RQTree.from_json(doc)
        tree.validate()

    def test_leaf_member_out_of_range(self, valid_tree_doc):
        # A leaf claiming a node id beyond the graph breaks the
        # root-covers-everything invariant.
        doc = json.loads(json.dumps(valid_tree_doc))
        leaves = [
            i for i, members in enumerate(doc["leaf_members"])
            if members is not None
        ]
        doc["leaf_members"][leaves[0]] = [doc["num_graph_nodes"] + 3]
        with pytest.raises(IndexCorruptionError):
            RQTree.from_json(doc)

    def test_duplicate_leaf_member(self, valid_tree_doc):
        doc = json.loads(json.dumps(valid_tree_doc))
        leaves = [
            i for i, members in enumerate(doc["leaf_members"])
            if members is not None
        ]
        doc["leaf_members"][leaves[0]] = doc["leaf_members"][leaves[1]]
        with pytest.raises(IndexCorruptionError):
            RQTree.from_json(doc)

    def test_wrong_node_count(self, valid_tree_doc):
        doc = json.loads(json.dumps(valid_tree_doc))
        doc["num_graph_nodes"] = doc["num_graph_nodes"] + 5
        with pytest.raises(IndexCorruptionError):
            RQTree.from_json(doc)

    def test_truncated_document(self, valid_tree_doc):
        doc = json.loads(json.dumps(valid_tree_doc))
        del doc["parents"]
        with pytest.raises((IndexCorruptionError, KeyError)):
            RQTree.from_json(doc)

    def test_engine_rejects_foreign_index(self):
        graph_small = nethept_like(n=20, seed=0)
        graph_large = nethept_like(n=30, seed=0)
        engine = RQTreeEngine.build(graph_small, seed=0)
        with pytest.raises(ValueError):
            RQTreeEngine(graph_large, engine.tree)


class TestCorruptedGraphDocuments:
    def test_arc_probability_out_of_range(self):
        doc = {
            "format": "repro-uncertain-graph",
            "version": 1,
            "num_nodes": 2,
            "arcs": [[0, 1, 1.5]],
        }
        with pytest.raises(InvalidProbabilityError):
            graph_from_json(doc)

    def test_arc_referencing_missing_node(self):
        doc = {
            "format": "repro-uncertain-graph",
            "version": 1,
            "num_nodes": 2,
            "arcs": [[0, 9, 0.5]],
        }
        with pytest.raises(Exception):
            graph_from_json(doc)

    def test_edge_list_with_binary_garbage(self, tmp_path):
        path = tmp_path / "garbage.txt"
        path.write_bytes(b"0 1 0.5\n\x00\x01\x02 nonsense\n")
        with pytest.raises(GraphError):
            read_edge_list(path)

    def test_edge_list_with_negative_probability(self, tmp_path):
        path = tmp_path / "neg.txt"
        path.write_text("0 1 -0.5\n")
        with pytest.raises(InvalidProbabilityError):
            read_edge_list(path)


class TestDegenerateQueries:
    def test_query_on_arc_free_graph(self):
        graph = UncertainGraph(5)
        engine = RQTreeEngine.build(graph, seed=0)
        result = engine.query(2, 0.5)
        assert result.nodes == {2}

    def test_query_on_single_node_graph(self):
        graph = UncertainGraph(1)
        engine = RQTreeEngine.build(graph, seed=0)
        assert engine.query(0, 0.5).nodes == {0}

    def test_all_sources_query(self):
        graph = uncertain_path([0.5, 0.5])
        engine = RQTreeEngine.build(graph, seed=0)
        result = engine.query([0, 1, 2], 0.9)
        assert result.nodes == {0, 1, 2}

    def test_near_zero_and_near_one_eta(self):
        graph = uncertain_path([0.5, 0.5])
        engine = RQTreeEngine.build(graph, seed=0)
        everything = engine.query(0, 1e-9).nodes
        assert everything == {0, 1, 2}
        almost_nothing = engine.query(0, 1 - 1e-9).nodes
        assert almost_nothing == {0}
