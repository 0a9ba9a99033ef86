"""The RQ-tree index structure (paper, Section 3).

An RQ-tree ``T`` over an uncertain graph ``G = (N, A, p)`` is a
hierarchical clustering of ``N``:

* the **root** cluster contains all of ``N``;
* every non-singleton cluster is partitioned into (two, Section 6)
  children;
* **leaves** are singletons, so each node ``s`` has a unique leaf and a
  unique leaf-to-root path of nested clusters — the path the
  candidate-generation phase walks bottom-up.

This module holds the pure data structure (construction from an explicit
hierarchy, navigation, validation, serialization, statistics); the
builder that *chooses* the hierarchy lives in
:mod:`repro.core.builder`, and query processing in
:mod:`repro.core.candidates` / :mod:`repro.core.verification`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Union

from ..errors import IndexCorruptionError, NodeNotFoundError
from ..resilience.faultinject import fault_point

__all__ = ["ClusterNode", "RQTree"]

PathLike = Union[str, Path]


class ClusterNode:
    """One cluster in the RQ-tree.

    Attributes
    ----------
    index:
        Position of this cluster in :attr:`RQTree.clusters`.
    parent:
        Index of the parent cluster, or ``None`` for the root.
    children:
        Indices of child clusters (empty for leaves).
    members:
        Frozen set of graph-node ids contained in the cluster.
    depth:
        Distance from the root (root has depth 0).
    """

    __slots__ = ("index", "parent", "children", "members", "depth")

    def __init__(
        self,
        index: int,
        parent: Optional[int],
        members: FrozenSet[int],
        depth: int,
    ) -> None:
        self.index = index
        self.parent = parent
        self.children: List[int] = []
        self.members = members
        self.depth = depth

    @property
    def is_leaf(self) -> bool:
        """Whether this cluster has no children."""
        return not self.children

    @property
    def size(self) -> int:
        """Number of graph nodes in the cluster."""
        return len(self.members)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClusterNode(index={self.index}, depth={self.depth}, "
            f"size={self.size}, leaf={self.is_leaf})"
        )


class RQTree:
    """Hierarchical clustering index over node ids ``0 .. n-1``.

    Instances are normally produced by :func:`repro.core.builder.build_rqtree`;
    the constructor here accepts an explicit parent/members description so
    that tests and the serializer can create trees directly.
    """

    def __init__(self, num_graph_nodes: int) -> None:
        self.num_graph_nodes = num_graph_nodes
        self.clusters: List[ClusterNode] = []
        self.root: Optional[int] = None
        # leaf_of[v] = index of the singleton cluster containing graph node v.
        self._leaf_of: List[Optional[int]] = [None] * num_graph_nodes
        # Maximum cluster depth, kept by add_cluster (every way a tree
        # is made goes through it) so reading it never scans clusters.
        self._height = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_cluster(
        self, parent: Optional[int], members: Set[int]
    ) -> int:
        """Append a cluster and return its index.

        The root must be added first (``parent=None``); children must
        reference existing parents and be subsets of them.
        """
        members_frozen = frozenset(members)
        for member in members_frozen:
            if not 0 <= member < self.num_graph_nodes:
                raise IndexCorruptionError(
                    f"cluster member {member} is outside the graph's "
                    f"node range 0..{self.num_graph_nodes - 1}"
                )
        if parent is None:
            if self.root is not None:
                raise IndexCorruptionError("an RQ-tree has exactly one root")
            depth = 0
        else:
            if not 0 <= parent < len(self.clusters):
                raise IndexCorruptionError(f"parent {parent} does not exist")
            parent_node = self.clusters[parent]
            if not members_frozen <= parent_node.members:
                raise IndexCorruptionError(
                    "child cluster must be a subset of its parent"
                )
            depth = parent_node.depth + 1
        index = len(self.clusters)
        node = ClusterNode(index, parent, members_frozen, depth)
        self.clusters.append(node)
        self._height = max(self._height, depth)
        if parent is None:
            self.root = index
        else:
            self.clusters[parent].children.append(index)
        if len(members_frozen) == 1:
            (graph_node,) = members_frozen
            self._leaf_of[graph_node] = index
        return index

    # ------------------------------------------------------------------
    # Navigation
    # ------------------------------------------------------------------
    def leaf_of(self, graph_node: int) -> int:
        """Index of the singleton leaf cluster of *graph_node*."""
        if not 0 <= graph_node < self.num_graph_nodes:
            raise NodeNotFoundError(graph_node)
        leaf = self._leaf_of[graph_node]
        if leaf is None:
            raise IndexCorruptionError(
                f"graph node {graph_node} has no leaf cluster"
            )
        return leaf

    def path_to_root(self, graph_node: int) -> Iterator[ClusterNode]:
        """Clusters on the leaf-to-root path of *graph_node* (leaf first).

        This is the traversal order of the single-source candidate
        generation (paper, Section 4.2).
        """
        index: Optional[int] = self.leaf_of(graph_node)
        while index is not None:
            node = self.clusters[index]
            yield node
            index = node.parent

    def parent_of(self, cluster_index: int) -> Optional[ClusterNode]:
        """Parent cluster object, or ``None`` at the root."""
        parent = self.clusters[cluster_index].parent
        return None if parent is None else self.clusters[parent]

    def smallest_cluster_containing(self, nodes: Sequence[int]) -> ClusterNode:
        """The smallest cluster whose members include all of *nodes*.

        Implemented as the lowest common ancestor of the nodes' leaves —
        the "single cluster common to all source nodes" the paper
        discusses (and rejects as too coarse) for multi-source queries.
        """
        nodes = list(nodes)
        if not nodes:
            raise ValueError("nodes must be non-empty")
        # Walk up from the deepest leaf until all nodes are covered.
        current = self.clusters[self.leaf_of(nodes[0])]
        targets = set(nodes)
        while not targets <= current.members:
            if current.parent is None:
                raise IndexCorruptionError(
                    "root does not contain all requested nodes"
                )
            current = self.clusters[current.parent]
        return current

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def num_clusters(self) -> int:
        """Total number of clusters (tree nodes)."""
        return len(self.clusters)

    @property
    def height(self) -> int:
        """Maximum depth over all clusters (root = 0)."""
        return self._height

    def leaves(self) -> Iterator[ClusterNode]:
        """Iterate over all leaf clusters."""
        return (c for c in self.clusters if c.is_leaf)

    def storage_size_estimate(self) -> int:
        """Rough index footprint in bytes (member ids at 8 bytes each).

        Matches the paper's ``O(n log n)`` storage accounting (Table 5
        reports megabytes): every cluster stores its member ids.
        """
        return sum(8 * c.size for c in self.clusters) + 32 * len(self.clusters)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check all RQ-tree invariants; raise on violation.

        * exactly one root whose members are all graph nodes,
        * children partition their parent,
        * every leaf is reachable from the root,
        * every graph node has a singleton leaf.
        """
        if self.root is None:
            raise IndexCorruptionError("tree has no root")
        root = self.clusters[self.root]
        if root.members != frozenset(range(self.num_graph_nodes)):
            raise IndexCorruptionError("root must contain every graph node")
        for cluster in self.clusters:
            if cluster.children:
                union: Set[int] = set()
                total = 0
                for child_index in cluster.children:
                    child = self.clusters[child_index]
                    if child.parent != cluster.index:
                        raise IndexCorruptionError(
                            f"child {child_index} has wrong parent pointer"
                        )
                    union |= child.members
                    total += child.size
                if union != set(cluster.members) or total != cluster.size:
                    raise IndexCorruptionError(
                        f"children of cluster {cluster.index} do not "
                        f"partition it"
                    )
            else:
                if cluster.size != 1:
                    raise IndexCorruptionError(
                        f"leaf cluster {cluster.index} is not a singleton"
                    )
        for graph_node in range(self.num_graph_nodes):
            leaf = self._leaf_of[graph_node]
            if leaf is None:
                raise IndexCorruptionError(
                    f"graph node {graph_node} has no leaf"
                )
            if self.clusters[leaf].members != frozenset({graph_node}):
                raise IndexCorruptionError(
                    f"leaf of node {graph_node} is not its singleton"
                )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """JSON-serializable description (parents + leaf members only).

        Internal members are reconstructed bottom-up on load, which keeps
        the document size ``O(n + #clusters)`` instead of ``O(n log n)``.
        """
        fault_point("rqtree.serialize")
        return {
            "format": "repro-rqtree",
            "version": 1,
            "num_graph_nodes": self.num_graph_nodes,
            "root": self.root,
            "parents": [c.parent for c in self.clusters],
            "leaf_members": [
                sorted(c.members) if c.is_leaf else None for c in self.clusters
            ],
        }

    @classmethod
    def from_json(cls, document: dict) -> "RQTree":
        """Rebuild a tree from :meth:`to_json` output and validate it."""
        fault_point("rqtree.deserialize")
        if document.get("format") != "repro-rqtree":
            raise IndexCorruptionError(
                f"unrecognized index format {document.get('format')!r}"
            )
        num_graph_nodes = int(document["num_graph_nodes"])
        parents: List[Optional[int]] = document["parents"]
        leaf_members: List[Optional[List[int]]] = document["leaf_members"]
        if len(parents) != len(leaf_members):
            raise IndexCorruptionError("parents/leaf_members length mismatch")
        count = len(parents)
        # Reconstruct member sets bottom-up.
        members: List[Set[int]] = [set() for _ in range(count)]
        children: List[List[int]] = [[] for _ in range(count)]
        for index, parent in enumerate(parents):
            if parent is not None:
                children[parent].append(index)
        for index in range(count):
            leaf = leaf_members[index]
            if leaf is not None:
                members[index] = set(leaf)
        # Process in reverse topological (children created after parents by
        # the builder, but serialized trees may not preserve that; do an
        # explicit post-order accumulation instead).
        order: List[int] = []
        root = document["root"]
        if root is None:
            raise IndexCorruptionError("serialized tree has no root")
        stack = [int(root)]
        while stack:
            index = stack.pop()
            order.append(index)
            stack.extend(children[index])
        for index in reversed(order):
            for child in children[index]:
                members[index] |= members[child]
        tree = cls(num_graph_nodes)
        # Re-add clusters in an order where parents precede children,
        # remembering the index remap.
        remap: Dict[int, int] = {}
        for index in order:  # root-first DFS order: parents precede children
            parent = parents[index]
            new_parent = None if parent is None else remap[parent]
            remap[index] = tree.add_cluster(new_parent, members[index])
        tree.validate()
        return tree

    def save(self, destination: PathLike) -> None:
        """Write the tree as JSON to *destination*."""
        path = Path(destination)
        with path.open("w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle)

    @classmethod
    def load(cls, source: PathLike) -> "RQTree":
        """Read a tree previously written by :meth:`save`."""
        path = Path(source)
        with path.open("r", encoding="utf-8") as handle:
            return cls.from_json(json.load(handle))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RQTree(n={self.num_graph_nodes}, clusters={self.num_clusters}, "
            f"height={self.height})"
        )
