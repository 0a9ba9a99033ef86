"""The uncertain (probabilistic) graph data structure.

An uncertain graph ``G = (N, A, p)`` (paper, Section 2) is a directed graph
whose arcs carry independent existence probabilities ``p: A -> (0, 1]``.
Under possible-world semantics, ``G`` defines a distribution over the
``2^|A|`` deterministic subgraphs obtained by keeping each arc ``a``
independently with probability ``p(a)``.

:class:`UncertainGraph` is the central substrate of this library: the
RQ-tree index (:mod:`repro.core`), the sampling estimators
(:mod:`repro.reliability`), and the influence-maximization application
(:mod:`repro.influence`) all operate on it.

Design notes
------------
* Nodes are dense integer ids ``0 .. n-1``.  Dense ids keep per-level
  cluster-membership arrays in the RQ-tree O(1)-addressable and make the
  lazy possible-world BFS allocation-free.
* Both forward and reverse adjacency lists are maintained, because
  Algorithm 1 of the paper needs out-neighbours of a cluster while the
  partitioner and several bounds need the undirected view.
* Parallel arcs are merged at insertion time with the noisy-or rule
  ``p = 1 - (1-p1)(1-p2)``: under independence, two parallel arcs are
  equivalent (for any reachability event) to a single arc that exists when
  at least one of them does.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..errors import (
    GraphError,
    InvalidProbabilityError,
    NodeNotFoundError,
)

Arc = Tuple[int, int]
WeightedArc = Tuple[int, int, float]

__all__ = ["UncertainGraph", "Arc", "WeightedArc"]


def _check_probability(value: float, arc: Optional[Arc] = None) -> float:
    """Validate that *value* is a probability in (0, 1] and return it."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise InvalidProbabilityError(value, arc) from None
    if math.isnan(value) or not 0.0 < value <= 1.0:
        raise InvalidProbabilityError(value, arc)
    return value


class UncertainGraph:
    """A directed graph whose arcs exist with independent probabilities.

    Parameters
    ----------
    n:
        Number of nodes; nodes are the integers ``0 .. n-1``.

    Examples
    --------
    The run-through example of the paper (Figure 1)::

        >>> g = UncertainGraph(5)           # s, u, v, w, t = 0, 1, 2, 3, 4
        >>> g.add_arc(0, 3, 0.6)            # s -> w
        >>> g.add_arc(0, 1, 0.5)            # s -> u
        >>> g.add_arc(3, 1, 0.5)            # w -> u
        >>> g.num_arcs
        3
    """

    __slots__ = (
        "_succ", "_pred", "_num_arcs", "_version", "_epoch",
        "_csr_cache", "_csr_lock",
    )

    def __init__(self, n: int = 0) -> None:
        if n < 0:
            raise GraphError(f"number of nodes must be non-negative, got {n}")
        # _succ[u] maps v -> p(u, v); _pred[v] maps u -> p(u, v).
        self._succ: List[Dict[int, float]] = [dict() for _ in range(n)]
        self._pred: List[Dict[int, float]] = [dict() for _ in range(n)]
        self._num_arcs = 0
        # Mutation counter: bumped by every structural change.  Derived
        # snapshots (the CSR arrays in :mod:`repro.accel.csr`) record
        # the version they were built at and rebuild when it no longer
        # matches.
        self._version = 0
        # Epoch counter: bumped only by the live update plane
        # (:mod:`repro.live`) when a batch of updates is committed and a
        # new snapshot is published.  Unlike ``_version`` (which counts
        # individual mutations), the epoch identifies a *published
        # generation* of the graph — queries are admitted against one
        # epoch and served against exactly that epoch's snapshot.
        self._epoch = 0
        # Slot for the cached CSR snapshot (owned by repro.accel.csr).
        # The lock serializes snapshot build/evict across threads — the
        # serving layer snapshots one shared graph from many workers.
        self._csr_cache = None
        self._csr_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_arcs(
        cls,
        arcs: Iterable[WeightedArc],
        n: Optional[int] = None,
    ) -> "UncertainGraph":
        """Build a graph from an iterable of ``(u, v, p)`` triples.

        If *n* is omitted, the node count is ``1 + max node id`` seen.
        Parallel arcs are merged with the noisy-or rule; self-loops are
        ignored because they never affect reachability.
        """
        arc_list = [(int(u), int(v), p) for u, v, p in arcs]
        if n is None:
            n = 1 + max(
                (max(u, v) for u, v, _ in arc_list), default=-1
            )
        graph = cls(n)
        for u, v, p in arc_list:
            graph.add_arc(u, v, p)
        return graph

    def add_node(self) -> int:
        """Append a fresh isolated node and return its id."""
        self._succ.append({})
        self._pred.append({})
        self._version += 1
        return len(self._succ) - 1

    def add_arc(self, u: int, v: int, p: float) -> None:
        """Insert the arc ``(u, v)`` with existence probability *p*.

        Self-loops are silently dropped (they cannot change any
        reachability event).  If the arc already exists, the two
        probabilities are combined with the noisy-or rule.
        """
        p = _check_probability(p, (u, v))
        self._require_node(u)
        self._require_node(v)
        if u == v:
            return
        existing = self._succ[u].get(v)
        if existing is None:
            self._num_arcs += 1
        else:
            # Noisy-or merge: the combined arc exists when at least one of
            # the parallel arcs exists.
            p = 1.0 - (1.0 - existing) * (1.0 - p)
            p = min(p, 1.0)
        self._succ[u][v] = p
        self._pred[v][u] = p
        self._version += 1

    def remove_arc(self, u: int, v: int) -> None:
        """Delete the arc ``(u, v)``; raise :class:`GraphError` if absent."""
        self._require_node(u)
        self._require_node(v)
        if v not in self._succ[u]:
            raise GraphError(f"arc ({u}, {v}) is not in the graph")
        del self._succ[u][v]
        del self._pred[v][u]
        self._num_arcs -= 1
        self._version += 1

    def _require_node(self, node: int) -> None:
        if not 0 <= node < len(self._succ):
            raise NodeNotFoundError(node)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return len(self._succ)

    @property
    def num_arcs(self) -> int:
        """Number of distinct directed arcs ``m``."""
        return self._num_arcs

    @property
    def version(self) -> int:
        """Monotonic mutation counter; changes whenever the graph does.

        Derived caches (CSR snapshots, samplers' arc lists) compare the
        version they were built at against the current one to decide
        whether they are still valid.
        """
        return self._version

    @property
    def epoch(self) -> int:
        """Published-generation counter for the live update plane.

        Bumped by :meth:`advance_epoch` when a committed update batch is
        published as a new snapshot.  Two graphs with the same
        ``(version, epoch)`` pair are byte-identical from the data
        plane's point of view: derived caches key on the pair so a
        copy-on-write epoch snapshot never aliases its parent's CSR.
        """
        return self._epoch

    def advance_epoch(self) -> int:
        """Bump the epoch counter and return the new value.

        Called by the update plane after a batch commit; plain
        mutations (``add_arc`` etc.) never touch the epoch.
        """
        self._epoch += 1
        return self._epoch

    def set_epoch(self, epoch: int) -> None:
        """Stamp this graph as belonging to *epoch* (snapshots only).

        Used when materializing a copy-on-write snapshot of a given
        generation; the epoch may only move forward.
        """
        if epoch < self._epoch:
            raise GraphError(
                f"epoch may not move backwards: {self._epoch} -> {epoch}"
            )
        self._epoch = epoch

    def __len__(self) -> int:
        return len(self._succ)

    def __contains__(self, node: int) -> bool:
        return 0 <= node < len(self._succ)

    def nodes(self) -> range:
        """All node ids as a range object."""
        return range(len(self._succ))

    def has_arc(self, u: int, v: int) -> bool:
        """Whether the directed arc ``(u, v)`` is present."""
        self._require_node(u)
        self._require_node(v)
        return v in self._succ[u]

    def probability(self, u: int, v: int) -> float:
        """Existence probability of the arc ``(u, v)``."""
        self._require_node(u)
        if v not in self._succ[u]:
            raise GraphError(f"arc ({u}, {v}) is not in the graph")
        return self._succ[u][v]

    def arcs(self) -> Iterator[WeightedArc]:
        """Iterate over all arcs as ``(u, v, p)`` triples."""
        for u, nbrs in enumerate(self._succ):
            for v, p in nbrs.items():
                yield (u, v, p)

    def successors(self, u: int) -> Dict[int, float]:
        """Out-neighbour map ``{v: p(u, v)}`` of node *u* (do not mutate)."""
        self._require_node(u)
        return self._succ[u]

    def predecessors(self, v: int) -> Dict[int, float]:
        """In-neighbour map ``{u: p(u, v)}`` of node *v* (do not mutate)."""
        self._require_node(v)
        return self._pred[v]

    def out_degree(self, u: int) -> int:
        """Number of out-neighbours of *u*."""
        self._require_node(u)
        return len(self._succ[u])

    def in_degree(self, v: int) -> int:
        """Number of in-neighbours of *v*."""
        self._require_node(v)
        return len(self._pred[v])

    def degree(self, u: int) -> int:
        """Total (in + out) degree of *u*."""
        return self.out_degree(u) + self.in_degree(u)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def subgraph(self, nodes: Iterable[int]) -> "SubgraphView":
        """Return a light-weight induced-subgraph view on *nodes*.

        The view shares storage with the parent graph and restricts
        adjacency iteration to arcs with both endpoints inside *nodes*.
        This is the workhorse of candidate-restricted verification
        (paper, Section 5), where sampling and shortest paths must only
        ever see the candidate-induced subgraph.
        """
        return SubgraphView(self, nodes)

    def reversed(self) -> "UncertainGraph":
        """A new graph with every arc direction flipped."""
        rev = UncertainGraph(self.num_nodes)
        for u, v, p in self.arcs():
            rev.add_arc(v, u, p)
        return rev

    def copy(self, preserve_versioning: bool = False) -> "UncertainGraph":
        """A deep, independent copy of this graph.

        By default the copy starts with a fresh ``version``/``epoch`` of
        0 (it is a new graph).  The live update plane passes
        ``preserve_versioning=True`` when materializing copy-on-write
        epoch snapshots, so the snapshot inherits the generation it was
        taken at and derived caches keyed on ``(version, epoch)``
        remain distinguishable across epochs.
        """
        dup = UncertainGraph(self.num_nodes)
        for u, nbrs in enumerate(self._succ):
            dup._succ[u] = dict(nbrs)
        for v, nbrs in enumerate(self._pred):
            dup._pred[v] = dict(nbrs)
        dup._num_arcs = self._num_arcs
        if preserve_versioning:
            dup._version = self._version
            dup._epoch = self._epoch
        return dup

    def copy_sharing(
        self,
        base: "UncertainGraph",
        tails: Iterable[int],
        heads: Iterable[int],
    ) -> "UncertainGraph":
        """A versioned copy of this graph that shares *base*'s other rows.

        *base* must be an earlier copy of this graph in which only the
        successor rows of *tails* and the predecessor rows of *heads*
        have changed since.  Those rows are copied from this graph;
        every other row of the result is *base*'s own dict.  Shared
        rows must never be mutated, so this is for read-only snapshots:
        the live update plane publishes each epoch this way
        (:mod:`repro.live.epochs`).  Versioning is preserved as by
        ``copy(preserve_versioning=True)``.
        """
        if base.num_nodes != self.num_nodes:
            raise GraphError(
                f"base has {base.num_nodes} nodes, this graph "
                f"{self.num_nodes}"
            )
        dup = UncertainGraph()
        dup._succ = list(base._succ)
        dup._pred = list(base._pred)
        for u in tails:
            dup._succ[u] = dict(self._succ[u])
        for v in heads:
            dup._pred[v] = dict(self._pred[v])
        dup._num_arcs = self._num_arcs
        dup._version = self._version
        dup._epoch = self._epoch
        return dup

    def undirected_weights(self) -> Dict[Tuple[int, int], float]:
        """Undirected arc weights ``w(u,v) = -log(1 - p)`` for partitioning.

        The RQ-tree builder (paper, Theorem 6) works on the undirected
        view of the graph with weight ``-log(1 - p(a))`` per arc;
        antiparallel arc pairs accumulate both weights.  Arcs with
        ``p = 1`` would have infinite weight; they are clamped to the
        weight of ``p = 1 - 1e-12`` so the ratio-cut objective stays
        finite (such an arc should essentially never be cut).
        """
        weights: Dict[Tuple[int, int], float] = {}
        for u, v, p in self.arcs():
            key = (u, v) if u < v else (v, u)
            w = -math.log(max(1.0 - p, 1e-12))
            weights[key] = weights.get(key, 0.0) + w
        return weights

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def total_probability_mass(self) -> float:
        """Sum of all arc probabilities (useful as a cheap fingerprint)."""
        return sum(p for _, _, p in self.arcs())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"UncertainGraph(n={self.num_nodes}, m={self.num_arcs})"
        )


class SubgraphView:
    """Read-only induced-subgraph view over an :class:`UncertainGraph`.

    Iteration over successors/predecessors is filtered to the member set;
    node ids are unchanged (no re-labelling), which lets callers mix
    results from the view and the parent graph freely.
    """

    __slots__ = ("_parent", "_members")

    def __init__(self, parent: UncertainGraph, nodes: Iterable[int]) -> None:
        self._parent = parent
        members: Set[int] = set()
        for node in nodes:
            parent._require_node(node)
            members.add(node)
        self._members = members

    @property
    def parent(self) -> UncertainGraph:
        """The underlying full graph."""
        return self._parent

    @property
    def members(self) -> Set[int]:
        """The set of node ids included in the view (do not mutate)."""
        return self._members

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the view."""
        return len(self._members)

    @property
    def num_arcs(self) -> int:
        """Number of arcs with both endpoints in the view (recomputed)."""
        return sum(1 for _ in self.arcs())

    def __contains__(self, node: int) -> bool:
        return node in self._members

    def nodes(self) -> Iterator[int]:
        """Iterate over member node ids."""
        return iter(self._members)

    def arcs(self) -> Iterator[WeightedArc]:
        """Iterate over induced arcs as ``(u, v, p)`` triples."""
        for u in self._members:
            for v, p in self._parent.successors(u).items():
                if v in self._members:
                    yield (u, v, p)

    def successors(self, u: int) -> Iterator[Tuple[int, float]]:
        """Iterate over ``(v, p)`` for member out-neighbours of *u*."""
        if u not in self._members:
            raise NodeNotFoundError(u)
        for v, p in self._parent.successors(u).items():
            if v in self._members:
                yield (v, p)

    def predecessors(self, v: int) -> Iterator[Tuple[int, float]]:
        """Iterate over ``(u, p)`` for member in-neighbours of *v*."""
        if v not in self._members:
            raise NodeNotFoundError(v)
        for u, p in self._parent.predecessors(v).items():
            if u in self._members:
                yield (u, p)

    def materialize(self) -> Tuple[UncertainGraph, Dict[int, int]]:
        """Copy the view into a standalone graph with dense relabelled ids.

        Returns the new graph and a mapping ``old_id -> new_id``.
        """
        ordering = sorted(self._members)
        relabel = {old: new for new, old in enumerate(ordering)}
        graph = UncertainGraph(len(ordering))
        for u, v, p in self.arcs():
            graph.add_arc(relabel[u], relabel[v], p)
        return graph, relabel

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SubgraphView(n={len(self._members)})"
