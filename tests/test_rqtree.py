"""Unit tests for the RQ-tree data structure and serialization."""

from __future__ import annotations

import pytest

from repro import RQTree
from repro.errors import IndexCorruptionError, NodeNotFoundError


def _manual_tree() -> RQTree:
    """A hand-built RQ-tree over 4 nodes: {0123} -> {01},{23} -> leaves."""
    tree = RQTree(4)
    root = tree.add_cluster(None, {0, 1, 2, 3})
    left = tree.add_cluster(root, {0, 1})
    right = tree.add_cluster(root, {2, 3})
    for node, parent in [(0, left), (1, left), (2, right), (3, right)]:
        tree.add_cluster(parent, {node})
    return tree


class TestConstruction:
    def test_manual_tree_is_valid(self):
        tree = _manual_tree()
        tree.validate()
        assert tree.num_clusters == 7
        assert tree.height == 2

    def test_two_roots_rejected(self):
        tree = RQTree(2)
        tree.add_cluster(None, {0, 1})
        with pytest.raises(IndexCorruptionError):
            tree.add_cluster(None, {0, 1})

    def test_child_must_be_subset(self):
        tree = RQTree(3)
        root = tree.add_cluster(None, {0, 1, 2})
        left = tree.add_cluster(root, {0})
        with pytest.raises(IndexCorruptionError):
            tree.add_cluster(left, {1})

    def test_missing_parent_rejected(self):
        tree = RQTree(2)
        tree.add_cluster(None, {0, 1})
        with pytest.raises(IndexCorruptionError):
            tree.add_cluster(42, {0})

    def test_depths_assigned(self):
        tree = _manual_tree()
        assert tree.clusters[tree.root].depth == 0
        leaf = tree.clusters[tree.leaf_of(0)]
        assert leaf.depth == 2


class TestNavigation:
    def test_leaf_of(self):
        tree = _manual_tree()
        for node in range(4):
            leaf = tree.clusters[tree.leaf_of(node)]
            assert leaf.members == frozenset({node})

    def test_leaf_of_out_of_range(self):
        tree = _manual_tree()
        with pytest.raises(NodeNotFoundError):
            tree.leaf_of(10)

    def test_path_to_root_is_nested(self):
        tree = _manual_tree()
        path = list(tree.path_to_root(2))
        assert [c.size for c in path] == [1, 2, 4]
        for child, parent in zip(path, path[1:]):
            assert child.members < parent.members

    def test_parent_of(self):
        tree = _manual_tree()
        leaf = tree.leaf_of(0)
        parent = tree.parent_of(leaf)
        assert parent is not None and parent.members == frozenset({0, 1})
        assert tree.parent_of(tree.root) is None

    def test_smallest_cluster_containing(self):
        tree = _manual_tree()
        assert tree.smallest_cluster_containing([0]).members == frozenset({0})
        assert tree.smallest_cluster_containing([0, 1]).members == frozenset(
            {0, 1}
        )
        assert tree.smallest_cluster_containing([0, 2]).size == 4

    def test_smallest_cluster_empty_input_rejected(self):
        with pytest.raises(ValueError):
            _manual_tree().smallest_cluster_containing([])


class TestStatistics:
    def test_leaves_enumeration(self):
        tree = _manual_tree()
        leaves = list(tree.leaves())
        assert len(leaves) == 4
        assert all(leaf.size == 1 for leaf in leaves)

    def test_storage_estimate_positive(self):
        assert _manual_tree().storage_size_estimate() > 0

    def test_height_is_max_cluster_depth_however_built(self, medium_graph):
        from repro.core.builder import build_rqtree

        def max_depth(tree):
            return max(c.depth for c in tree.clusters)

        built, _ = build_rqtree(medium_graph, seed=0)
        assert built.height == max_depth(built) > 0
        for options in ({"branching": 4}, {"strategy": "random"}):
            other, _ = build_rqtree(medium_graph, seed=3, **options)
            assert other.height == max_depth(other)
        restored = RQTree.from_json(built.to_json())
        assert restored.height == max_depth(restored) == built.height
        assert RQTree(3).height == 0


class TestValidation:
    def test_missing_leaf_detected(self):
        tree = RQTree(2)
        root = tree.add_cluster(None, {0, 1})
        tree.add_cluster(root, {0})
        tree.add_cluster(root, {1})
        tree.validate()  # complete tree passes

        incomplete = RQTree(2)
        incomplete.add_cluster(None, {0, 1})
        with pytest.raises(IndexCorruptionError):
            incomplete.validate()

    def test_root_must_cover_all_nodes(self):
        tree = RQTree(3)
        tree.add_cluster(None, {0, 1})
        with pytest.raises(IndexCorruptionError):
            tree.validate()

    def test_rootless_tree_rejected(self):
        with pytest.raises(IndexCorruptionError):
            RQTree(1).validate()


class TestSerialization:
    def test_json_round_trip(self):
        tree = _manual_tree()
        restored = RQTree.from_json(tree.to_json())
        assert restored.num_clusters == tree.num_clusters
        assert restored.height == tree.height
        for node in range(4):
            original_path = [c.members for c in tree.path_to_root(node)]
            restored_path = [c.members for c in restored.path_to_root(node)]
            assert original_path == restored_path

    def test_file_round_trip(self, tmp_path):
        tree = _manual_tree()
        path = tmp_path / "tree.json"
        tree.save(path)
        restored = RQTree.load(path)
        assert restored.num_clusters == tree.num_clusters

    def test_unknown_format_rejected(self):
        with pytest.raises(IndexCorruptionError):
            RQTree.from_json({"format": "mystery"})

    def test_corrupted_parents_detected(self):
        doc = _manual_tree().to_json()
        doc["parents"] = doc["parents"][:-1]
        with pytest.raises(IndexCorruptionError):
            RQTree.from_json(doc)

    def test_rootless_document_rejected(self):
        doc = _manual_tree().to_json()
        doc["root"] = None
        with pytest.raises(IndexCorruptionError):
            RQTree.from_json(doc)

    def test_built_tree_round_trip(self, medium_engine):
        tree = medium_engine.tree
        restored = RQTree.from_json(tree.to_json())
        restored.validate()
        assert restored.num_clusters == tree.num_clusters
        assert restored.height == tree.height
