"""Immutable CSR (compressed sparse row) snapshots of an uncertain graph.

The pure-Python :class:`~repro.graph.uncertain.UncertainGraph` stores
adjacency as per-node dicts — ideal for incremental construction and
O(1) arc lookup, hopeless for bulk numeric work.  :func:`csr_snapshot`
freezes the graph into four flat numpy arrays per direction
(``indptr`` / ``indices`` / ``probs``, forward and reverse), the layout
every vectorized kernel in :mod:`repro.accel.mc_kernel` consumes.

Snapshots are cached *on the graph object* and keyed by the graph's
``(version, epoch)`` pair (:attr:`UncertainGraph.version` counts
mutations, :attr:`UncertainGraph.epoch` counts published live-update
generations): repeated sampling runs against an unchanged graph reuse
the same arrays, and any ``add_arc`` / ``remove_arc`` / ``add_node`` or
epoch advance invalidates the cache automatically.  The arrays themselves are marked read-only so a stale
reference can never be mutated into inconsistency.  A live epoch's
snapshot graph gets its CSR carried from the previous epoch's
(:func:`carry_snapshot`): only the rows the batch touched are packed.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Optional

import numpy as np

from ..graph.uncertain import UncertainGraph
from ..resilience.faultinject import fault_point

__all__ = ["CSRGraph", "carry_snapshot", "csr_snapshot"]


class CSRGraph:
    """Read-only CSR view of an :class:`UncertainGraph` at one version.

    Attributes
    ----------
    indptr, indices, probs:
        Forward adjacency: the out-arcs of node ``u`` are
        ``indices[indptr[u]:indptr[u+1]]`` with existence probabilities
        ``probs[indptr[u]:indptr[u+1]]``.
    rev_indptr, rev_indices, rev_probs:
        The same layout for the reverse graph (in-arcs), used by
        reverse-reachability kernels.
    version:
        The :attr:`UncertainGraph.version` the snapshot was taken at.
    epoch:
        The :attr:`UncertainGraph.epoch` the snapshot was taken at.
        Copy-on-write epoch snapshots can share a version with their
        parent graph (``copy(preserve_versioning=True)`` then a batch of
        identical-count mutations), so cache validity is decided on the
        ``(version, epoch)`` pair, never the version alone.
    """

    __slots__ = (
        "num_nodes",
        "num_arcs",
        "indptr",
        "indices",
        "probs",
        "probs_f32",
        "rev_indptr",
        "rev_indices",
        "rev_probs",
        "rev_probs_f32",
        "version",
        "epoch",
    )

    def __init__(self, graph: UncertainGraph) -> None:
        if not isinstance(graph, UncertainGraph):
            raise TypeError(
                "CSR snapshots require a materialized UncertainGraph; "
                "call .materialize() on subgraph views first "
                f"(got {type(graph).__name__})"
            )
        self.num_nodes = graph.num_nodes
        self.num_arcs = graph.num_arcs
        self.version = graph.version
        self.epoch = graph.epoch
        self.indptr, self.indices, self.probs = self._pack(
            graph, graph.successors
        )
        self.rev_indptr, self.rev_indices, self.rev_probs = self._pack(
            graph, graph.predecessors
        )
        self._add_f32()

    def _add_f32(self) -> None:
        # float32 copies for the MC kernel's bulk coin flips: float32
        # uniforms are ~2x cheaper to draw and the 2^-24 rounding of a
        # probability is far below any Monte-Carlo resolution.
        self.probs_f32 = self.probs.astype(np.float32)
        self.probs_f32.setflags(write=False)
        self.rev_probs_f32 = self.rev_probs.astype(np.float32)
        self.rev_probs_f32.setflags(write=False)

    @staticmethod
    def _pack(graph: UncertainGraph, neighbours):
        n = graph.num_nodes
        rows = [neighbours(u) for u in range(n)]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([len(row) for row in rows], out=indptr[1:])
        m = int(indptr[-1])
        indices = np.fromiter(chain.from_iterable(rows), np.int64, count=m)
        probs = np.fromiter(
            chain.from_iterable(row.values() for row in rows),
            np.float64,
            count=m,
        )
        for array in (indptr, indices, probs):
            array.setflags(write=False)
        return indptr, indices, probs

    @classmethod
    def derive(
        cls,
        base: "CSRGraph",
        graph: UncertainGraph,
        tails: Iterable[int],
        heads: Iterable[int],
    ) -> "CSRGraph":
        """``CSRGraph(graph)``, repacking only the rows that changed.

        *base* must snapshot an earlier copy of *graph* that differs
        from it only in the successor rows of *tails* and the
        predecessor rows of *heads* (the contract of
        :meth:`UncertainGraph.copy_sharing`).  Those rows are packed
        from *graph*; every other row is copied from *base* in
        contiguous slices.  The arrays equal a full pack's, so kernels
        draw the same coins from either.
        """
        self = object.__new__(cls)
        self.num_nodes = graph.num_nodes
        self.num_arcs = graph.num_arcs
        self.version = graph.version
        self.epoch = graph.epoch
        self.indptr, self.indices, self.probs = self._repack(
            base.indptr, base.indices, base.probs, graph.successors, tails
        )
        self.rev_indptr, self.rev_indices, self.rev_probs = self._repack(
            base.rev_indptr, base.rev_indices, base.rev_probs,
            graph.predecessors, heads,
        )
        self._add_f32()
        return self

    @staticmethod
    def _repack(indptr, indices, probs, neighbours, rows):
        """What :meth:`_pack` builds, from an older pack in which only
        *rows* differ."""
        rows = sorted(set(rows))
        fresh = [neighbours(u) for u in rows]
        degrees = np.diff(indptr)
        degrees[rows] = [len(row) for row in fresh]
        new_indptr = np.zeros_like(indptr)
        np.cumsum(degrees, out=new_indptr[1:])
        index_parts, prob_parts = [], []
        start = 0
        for u, row in zip(rows, fresh):
            stop = indptr[u]
            index_parts += [
                indices[start:stop], np.fromiter(row, np.int64, len(row)),
            ]
            prob_parts += [
                probs[start:stop],
                np.fromiter(row.values(), np.float64, len(row)),
            ]
            start = indptr[u + 1]
        index_parts.append(indices[start:])
        prob_parts.append(probs[start:])
        new_indices = np.concatenate(index_parts)
        new_probs = np.concatenate(prob_parts)
        for array in (new_indptr, new_indices, new_probs):
            array.setflags(write=False)
        return new_indptr, new_indices, new_probs

    def out_degrees(self) -> "np.ndarray":
        """Vector of out-degrees (length ``num_nodes``)."""
        return self.indptr[1:] - self.indptr[:-1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(n={self.num_nodes}, m={self.num_arcs}, "
            f"version={self.version})"
        )


#: How often a snapshot build is retried when a concurrent mutation is
#: detected mid-pack before giving up with a clear error.
_BUILD_RETRIES = 8


def csr_snapshot(graph: UncertainGraph) -> CSRGraph:
    """The CSR snapshot of *graph*, building (and caching) it if needed.

    The snapshot is stored on the graph and reused while
    ``graph.version`` is unchanged; any mutation makes the next call
    rebuild.  Cost of a rebuild is one pass over the adjacency dicts —
    amortized to nothing across the K worlds of a sampling run.

    Thread safety: build and cache replacement are serialized on a
    per-graph lock, so concurrent snapshotters (the serving layer's
    worker pool) share one build per graph version and a torn snapshot
    — one whose pack raced a mutation on another thread — is never
    cached *or* returned.  A mutation observed mid-build triggers a
    bounded retry; a graph mutating faster than it can be packed is a
    caller-side race and surfaces as a ``RuntimeError`` rather than
    silently inconsistent arrays.
    """
    from ..service.metrics import get_registry

    fault_point("csr.snapshot")
    with graph._csr_lock:
        cached: Optional[CSRGraph] = graph._csr_cache
        if (
            cached is not None
            and cached.version == graph.version
            and cached.epoch == graph.epoch
        ):
            get_registry().counter("accel.csr_cache_hits").inc()
            return cached
        for _ in range(_BUILD_RETRIES):
            version = graph.version
            epoch = graph.epoch
            try:
                snapshot = CSRGraph(graph)
            except Exception:
                if graph.version == version:
                    raise  # a genuine build error, not a racing mutation
                continue
            if graph.version == version and graph.epoch == epoch:
                graph._csr_cache = snapshot
                get_registry().counter("accel.csr_builds").inc()
                return snapshot
        raise RuntimeError(
            "graph mutated continuously during CSR snapshot build; "
            "serialize mutations against sampling"
        )


def carry_snapshot(
    base: UncertainGraph,
    graph: UncertainGraph,
    tails: Iterable[int],
    heads: Iterable[int],
) -> None:
    """Carry *base*'s cached CSR forward onto *graph*.

    *graph* must differ from *base* only in the successor rows of
    *tails* and the predecessor rows of *heads*
    (:meth:`UncertainGraph.copy_sharing`).  When *base* holds a current
    snapshot, *graph*'s is derived from it (:meth:`CSRGraph.derive`)
    and cached; otherwise nothing is built, and *graph* packs lazily on
    its first :func:`csr_snapshot`.  ``accel.csr_builds`` counts full
    packs only, so a carry does not count.
    """
    with base._csr_lock:
        cached: Optional[CSRGraph] = base._csr_cache
    if (
        cached is None
        or cached.version != base.version
        or cached.epoch != base.epoch
    ):
        return
    derived = CSRGraph.derive(cached, graph, tails, heads)
    with graph._csr_lock:
        graph._csr_cache = derived
