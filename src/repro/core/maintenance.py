"""Incremental index maintenance under graph updates.

The paper builds the RQ-tree once over a static graph.  Real deployments
(social networks, interaction databases) mutate: arcs appear, disappear,
and change probability.  A key structural fact makes maintenance
tractable:

    **Any hierarchical partition is a correct RQ-tree.**  Soundness of
    candidate generation rests only on the ``U_out`` bounds, which are
    computed *online* against the current graph (Algorithm 1).  The
    clustering merely decides how *tight* those bounds are — i.e. how
    much gets pruned.  An arc update therefore never makes the index
    wrong; it can only erode pruning quality where the update crosses
    cluster boundaries.

:class:`DynamicRQTreeEngine` exploits this: updates are applied to the
graph immediately (queries stay correct at all times), while *damage* is
tracked per cluster — an inserted/strengthened arc crossing a cluster's
boundary increases that cluster's outreach mass, loosening its bound.
When a cluster's accumulated damage exceeds a configurable fraction of
its size, its subtree is re-partitioned in place via
:func:`repro.core.builder.rebuild_subtree` (cost proportional to the
cluster, not the graph).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..graph.uncertain import UncertainGraph
from ..seeding import derive_seed
from .builder import rebuild_subtree
from .engine import QueryResult, RQTreeEngine
from .rqtree import RQTree

__all__ = ["MaintenanceStats", "DynamicRQTreeEngine"]


@dataclass
class MaintenanceStats:
    """Counters describing maintenance activity so far."""

    arcs_added: int = 0
    arcs_removed: int = 0
    subtree_rebuilds: int = 0
    nodes_repartitioned: int = 0


class DynamicRQTreeEngine:
    """An RQ-tree engine that stays usable while the graph changes.

    Parameters
    ----------
    graph:
        The uncertain graph (mutated in place by updates).
    damage_threshold:
        A cluster's subtree is rebuilt when its accumulated damage
        exceeds ``damage_threshold * cluster_size``.  Damage is counted
        as one unit per update whose endpoints straddle the cluster's
        boundary at some tree level (i.e. per update that loosens the
        cluster's cut).  Lower values rebuild more eagerly.
    min_rebuild_size:
        Clusters smaller than this never trigger a rebuild on their
        own: every inserted arc trivially crosses its endpoints' leaf
        boundaries, and re-partitioning a handful of nodes cannot
        improve pruning.  Damage on small clusters still propagates to
        their (large) ancestors through the per-level charging.
    seed / strategy / max_imbalance:
        Passed to the builder for the initial build, for
        :meth:`force_rebuild` and for subtree repairs.  Repairs split
        binary, like the initial build.

    Example
    -------
    ::

        dyn = DynamicRQTreeEngine(graph, seed=3)
        dyn.add_arc(10, 99, 0.7)          # index remains queryable
        result = dyn.query(10, eta=0.5)   # correct against current graph
    """

    def __init__(
        self,
        graph: UncertainGraph,
        damage_threshold: float = 0.25,
        seed: int = 0,
        strategy: str = "multilevel",
        max_imbalance: float = 0.1,
        min_rebuild_size: int = 8,
    ) -> None:
        self._configure(
            graph, damage_threshold, seed, strategy, max_imbalance,
            min_rebuild_size,
        )
        self._engine = self._build_engine()

    @classmethod
    def from_engine(
        cls,
        engine: RQTreeEngine,
        damage_threshold: float = 0.25,
        seed: int = 0,
        strategy: str = "multilevel",
        max_imbalance: float = 0.1,
        min_rebuild_size: int = 8,
    ) -> "DynamicRQTreeEngine":
        """Wrap an *existing* engine without rebuilding its index.

        The shard runtime uses this to retrofit maintenance onto the
        engine it deserialized (or rebuilt from ``tree_json``) at init:
        the tree is adopted as-is — correct by the structural fact in
        the module docstring — and only accrues damage from updates
        applied after the wrap.
        """
        self = cls.__new__(cls)
        self._configure(
            engine.graph, damage_threshold, seed, strategy, max_imbalance,
            min_rebuild_size,
        )
        self._engine = engine
        return self

    def _configure(
        self,
        graph: UncertainGraph,
        damage_threshold: float,
        seed: int,
        strategy: str,
        max_imbalance: float,
        min_rebuild_size: int,
    ) -> None:
        """Validate and store the settings both constructors share."""
        if damage_threshold <= 0:
            raise ValueError(
                f"damage_threshold must be positive, got {damage_threshold}"
            )
        if min_rebuild_size < 2:
            raise ValueError(
                f"min_rebuild_size must be >= 2, got {min_rebuild_size}"
            )
        self.graph = graph
        self.damage_threshold = damage_threshold
        self.min_rebuild_size = min_rebuild_size
        self._seed = seed
        self._strategy = strategy
        self._max_imbalance = max_imbalance
        # damage[cluster_index] accumulates boundary-crossing updates.
        self._damage: Dict[int, int] = {}
        self.stats = MaintenanceStats()

    def _build_engine(self) -> RQTreeEngine:
        """Build a whole-graph index with the stored settings."""
        return RQTreeEngine.build(
            self.graph,
            max_imbalance=self._max_imbalance,
            seed=self._seed,
            strategy=self._strategy,
        )

    # ------------------------------------------------------------------
    # Delegation
    # ------------------------------------------------------------------
    @property
    def tree(self) -> RQTree:
        """The current index tree (replaced wholesale on rebuilds)."""
        return self._engine.tree

    @property
    def engine(self) -> RQTreeEngine:
        """The wrapped static engine (replaced wholesale on rebuilds)."""
        return self._engine

    def query(self, *args, **kwargs) -> QueryResult:
        """Answer a reliability-search query (see RQTreeEngine.query)."""
        return self._engine.query(*args, **kwargs)

    def candidates(self, *args, **kwargs):
        """Candidate generation only (see RQTreeEngine.candidates)."""
        return self._engine.candidates(*args, **kwargs)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def add_arc(self, u: int, v: int, p: float) -> None:
        """Insert (or noisy-or strengthen) the arc ``(u, v)``.

        The graph is updated immediately; cluster damage is recorded
        for every tree cluster whose boundary the new arc crosses, and
        an over-damaged cluster triggers a local subtree rebuild.
        """
        self.graph.add_arc(u, v, p)
        self.stats.arcs_added += 1
        self._record_damage(u, v)

    def remove_arc(self, u: int, v: int) -> None:
        """Delete the arc ``(u, v)``.

        Removal can only *tighten* cuts, but it still invalidates the
        balance/quality the partitioner optimized for, so it charges
        the same clusters one damage unit each, as an insertion does.
        """
        self.graph.remove_arc(u, v)
        self.stats.arcs_removed += 1
        self._record_damage(u, v)

    def update_probability(self, u: int, v: int, p: float) -> None:
        """Set the probability of an existing arc to *p* exactly."""
        self.graph.remove_arc(u, v)
        self.graph.add_arc(u, v, p)
        self._record_damage(u, v)

    def apply(self, ops: Sequence) -> int:
        """Apply a batch of updates; returns the number applied.

        Each op is either an ``(op, u, v, p)`` tuple with ``op`` one of
        ``"set"`` / ``"insert"`` / ``"delete"`` (``p`` ignored for
        deletes) or any object with ``op`` / ``u`` / ``v`` / ``p``
        attributes (the live plane's :class:`repro.live.ArcUpdate`).

        Semantics are upsert-friendly so a slice replayed against a
        shard that already saw part of the batch stays idempotent-ish:
        ``"set"`` on a missing arc inserts it, ``"insert"`` on an
        existing arc sets it exactly (no noisy-or double counting —
        the update plane's contract is "the arc's probability is now
        p"), and ``"delete"`` on a missing arc is a no-op.
        """
        applied = 0
        for item in ops:
            if isinstance(item, tuple):
                op, u, v = item[0], item[1], item[2]
                p = item[3] if len(item) > 3 else None
            else:
                op, u, v, p = item.op, item.u, item.v, item.p
            if op == "delete":
                if self.graph.has_arc(u, v):
                    self.remove_arc(u, v)
                    applied += 1
                continue
            if op not in ("set", "insert"):
                raise ValueError(f"unknown update op {op!r}")
            if self.graph.has_arc(u, v):
                self.update_probability(u, v, p)
            else:
                self.add_arc(u, v, p)
            applied += 1
        return applied

    # ------------------------------------------------------------------
    # Damage accounting and repair
    # ------------------------------------------------------------------
    def _record_damage(self, u: int, v: int) -> None:
        """Charge the clusters whose boundary the arc (u, v) crosses.

        Walking up from ``u``'s leaf, the arc is a boundary arc of every
        cluster on the path that does not yet contain ``v``; it becomes
        internal at the least common ancestor.  Each such cluster takes
        one damage unit; the most-damaged cluster relative to its size
        is rebuilt when it exceeds the threshold.
        """
        tree = self._engine.tree
        worst: Optional[int] = None
        worst_score = 0.0
        for cluster in tree.path_to_root(u):
            if v in cluster.members:
                break  # arc is internal from here up
            index = cluster.index
            self._engine.bounds_cache.invalidate((index,))
            self._damage[index] = self._damage.get(index, 0) + 1
            if cluster.size < self.min_rebuild_size:
                continue  # too small for re-partitioning to pay off
            score = self._damage[index] / cluster.size
            if score > worst_score:
                worst_score = score
                worst = index
        if worst is not None and worst_score > self.damage_threshold:
            self._rebuild(worst)

    def _rebuild(self, cluster_index: int) -> None:
        """Re-partition the damaged cluster's parent branch.

        Rebuilding the *parent* (when one exists) lets the repartition
        move nodes across the damaged boundary, which rebuilding the
        damaged cluster alone could not.
        """
        tree = self._engine.tree
        target = tree.clusters[cluster_index]
        if target.parent is not None:
            target = tree.clusters[target.parent]
        new_tree = rebuild_subtree(
            self.graph,
            tree,
            target.index,
            max_imbalance=self._max_imbalance,
            seed=derive_seed(
                self._seed, "maintenance.rebuild", self.stats.subtree_rebuilds
            ),
            strategy=self._strategy,
        )
        self._engine = RQTreeEngine(
            self.graph, new_tree, flow_engine=self._engine.flow_engine
        )
        self.stats.subtree_rebuilds += 1
        self.stats.nodes_repartitioned += target.size
        # Cluster indices changed wholesale; damage bookkeeping restarts.
        self._damage.clear()

    def force_rebuild(self) -> None:
        """Rebuild the entire index now (e.g. after a bulk load)."""
        self._engine = self._build_engine()
        self._damage.clear()
        self.stats.subtree_rebuilds += 1
        self.stats.nodes_repartitioned += self.graph.num_nodes
