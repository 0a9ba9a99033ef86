"""What-if transformations of uncertain graphs.

Reliability analyses routinely ask counterfactuals — "what if every
link were 20 % less reliable?", "which part of the network is held
together by strong ties only?" — that reduce to graph transformations
followed by ordinary queries:

* :func:`scale_probabilities` — multiply every arc probability by a
  factor (clamped to (0, 1]); the link-degradation / hardening knob;
* :func:`power_probabilities` — raise probabilities to an exponent,
  the smooth sharpen/flatten transform (``p^k`` models ``k`` serial
  independent copies of each link);
* :func:`threshold_backbone` — keep only arcs with ``p >= tau`` (the
  certain-core extraction used in backbone analyses);
* :func:`make_undirected` — symmetrize by adding each arc's reverse
  (noisy-or if both directions exist);
* :func:`weighted_cascade` — replace probabilities with
  ``1 / in_degree(v)`` per *incoming* arc, the IC-model normalization
  of Kempe et al. [23] (the paper's Last.FM/WebGraph datasets use the
  out-degree flavour, implemented in the generators).

All transforms return new graphs; inputs are never mutated.
"""

from __future__ import annotations

from typing import Callable

from ..errors import GraphError
from .uncertain import UncertainGraph

__all__ = [
    "map_probabilities",
    "scale_probabilities",
    "power_probabilities",
    "threshold_backbone",
    "make_undirected",
    "weighted_cascade",
]

#: Smallest probability a transform will emit (arcs cannot carry 0).
_MIN_PROBABILITY = 1e-9


def map_probabilities(
    graph: UncertainGraph, mapper: Callable[[float], float]
) -> UncertainGraph:
    """Apply *mapper* to every arc probability (generic transform).

    Results are clamped into ``[_MIN_PROBABILITY, 1]``; a mapper
    returning 0 or less drops to the floor rather than deleting the arc
    (use :func:`threshold_backbone` for deletion semantics).
    """
    result = UncertainGraph(graph.num_nodes)
    for u, v, p in graph.arcs():
        q = mapper(p)
        q = min(1.0, max(_MIN_PROBABILITY, q))
        result.add_arc(u, v, q)
    return result


def scale_probabilities(graph: UncertainGraph, factor: float) -> UncertainGraph:
    """Multiply every probability by *factor* (degrade < 1 < harden)."""
    if factor <= 0:
        raise GraphError(f"scale factor must be positive, got {factor}")
    return map_probabilities(graph, lambda p: p * factor)


def power_probabilities(graph: UncertainGraph, exponent: float) -> UncertainGraph:
    """Raise every probability to *exponent*.

    ``exponent > 1`` weakens uncertain arcs faster than near-certain
    ones (serial-composition semantics); ``0 < exponent < 1`` flattens
    towards certainty.
    """
    if exponent <= 0:
        raise GraphError(f"exponent must be positive, got {exponent}")
    return map_probabilities(graph, lambda p: p ** exponent)


def threshold_backbone(graph: UncertainGraph, tau: float) -> UncertainGraph:
    """Keep only arcs with probability at least *tau*.

    The deterministic "strong backbone": reachability in the backbone
    lower-bounds reliability-search answers at any ``eta <= tau``
    (every backbone path has probability >= tau^length — a coarse but
    free screen used in tests and examples).
    """
    if not 0.0 < tau <= 1.0:
        raise GraphError(f"tau must be in (0, 1], got {tau}")
    result = UncertainGraph(graph.num_nodes)
    for u, v, p in graph.arcs():
        if p >= tau:
            result.add_arc(u, v, p)
    return result


def make_undirected(graph: UncertainGraph) -> UncertainGraph:
    """Symmetrize: every arc gains its reverse with the same probability.

    Antiparallel pairs that already exist are noisy-or merged by
    :meth:`UncertainGraph.add_arc`, so the result is reciprocal and at
    least as reliable in both directions as the input was in either.
    """
    result = UncertainGraph(graph.num_nodes)
    for u, v, p in graph.arcs():
        result.add_arc(u, v, p)
        result.add_arc(v, u, p)
    return result


def weighted_cascade(graph: UncertainGraph) -> UncertainGraph:
    """Kempe et al.'s weighted-cascade normalization: ``p = 1/indeg(v)``.

    Keeps the topology, replaces every arc's probability with the
    reciprocal of its *head's* in-degree — each node is equally easy to
    influence overall, split evenly among its influencers.
    """
    result = UncertainGraph(graph.num_nodes)
    for u, v, _ in graph.arcs():
        result.add_arc(u, v, 1.0 / graph.in_degree(v))
    return result
