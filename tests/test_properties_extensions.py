"""Property-based tests for the extension features.

Companion to ``test_properties.py``: universally-quantified checks for
the functionality added beyond the paper's core (hop bounds, caching
transparency, arc updates on a built index, transforms, condensation,
variance reduction).
"""

from __future__ import annotations

import math
import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import RQTreeEngine, UncertainGraph
from repro.graph.condense import contract_certain_sccs
from repro.graph.exact import (
    exact_hop_reliability,
    exact_reliability,
    exact_reliability_search,
)
from repro.graph.paths import hop_bounded_path_probabilities
from repro.graph.transforms import (
    power_probabilities,
    scale_probabilities,
    threshold_backbone,
)
from repro.live.updates import apply_to_graph, normalize_updates
from repro.reliability.variance_reduction import stratified_reliability
from repro.service import ReliabilityService

PROBS = st.floats(min_value=0.05, max_value=1.0, allow_nan=False)


@st.composite
def small_uncertain_graphs(draw, max_nodes=6, max_arcs=12):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    arcs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), PROBS),
            min_size=1,
            max_size=max_arcs,
        )
    )
    g = UncertainGraph(n)
    for u, v, p in arcs:
        if u != v:
            g.add_arc(u, v, p)
    return g


COMMON = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------
# Hop bounds
# ---------------------------------------------------------------------
@COMMON
@given(small_uncertain_graphs(), st.integers(0, 5))
def test_hop_bounded_path_is_lower_bound_of_hop_reliability(g, hops):
    if g.num_arcs > 14:
        return
    probs = hop_bounded_path_probabilities(g, [0], hops)
    for t, lower in probs.items():
        if t == 0:
            continue
        true = exact_hop_reliability(g, [0], t, hops)
        assert lower <= true + 1e-9


@COMMON
@given(small_uncertain_graphs())
def test_hop_reliability_monotone_in_budget(g):
    if g.num_arcs > 12:
        return
    target = g.num_nodes - 1
    previous = 0.0
    for hops in range(4):
        value = exact_hop_reliability(g, [0], target, hops)
        assert value >= previous - 1e-12
        previous = value
    assert exact_reliability(g, [0], target) >= previous - 1e-12


# ---------------------------------------------------------------------
# Transform monotonicity
# ---------------------------------------------------------------------
@COMMON
@given(small_uncertain_graphs(), st.floats(0.2, 0.9))
def test_scaling_down_never_increases_reliability(g, factor):
    if g.num_arcs > 14:
        return
    weakened = scale_probabilities(g, factor)
    target = g.num_nodes - 1
    assert (
        exact_reliability(weakened, [0], target)
        <= exact_reliability(g, [0], target) + 1e-9
    )


@COMMON
@given(small_uncertain_graphs(), st.floats(1.0, 3.0))
def test_powering_up_never_increases_reliability(g, exponent):
    if g.num_arcs > 14:
        return
    weakened = power_probabilities(g, exponent)
    target = g.num_nodes - 1
    assert (
        exact_reliability(weakened, [0], target)
        <= exact_reliability(g, [0], target) + 1e-9
    )


@COMMON
@given(small_uncertain_graphs(), st.floats(0.1, 0.9))
def test_backbone_reachability_implies_reliability(g, tau):
    # Any node reachable in the tau-backbone has reliability at least
    # tau^(path length) > 0; more simply, backbone reachability implies
    # nonzero reliability in the original graph.
    from repro.graph.traversal import bfs_reachable

    backbone = threshold_backbone(g, tau)
    if g.num_arcs > 14:
        return
    for t in bfs_reachable(backbone, [0]):
        if t == 0:
            continue
        assert exact_reliability(g, [0], t) > 0.0


# ---------------------------------------------------------------------
# Caching transparency and engine consistency
# ---------------------------------------------------------------------
@COMMON
@given(small_uncertain_graphs(), st.floats(0.1, 0.9))
def test_cached_engine_answers_match_uncached(g, eta):
    engine = RQTreeEngine.build(g, seed=0)
    direct = engine.query(0, eta).nodes
    with ReliabilityService(engine, workers=1) as service:
        first = service.query(0, eta, timeout=60).nodes
        second = service.query(0, eta, timeout=60).nodes  # from the cache
        assert service.cache.stats.hits == 1
    assert first == direct
    assert second == direct


@COMMON
@given(
    small_uncertain_graphs(),
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), PROBS),
        min_size=1,
        max_size=5,
    ),
    st.floats(0.2, 0.8),
)
def test_dynamic_engine_matches_fresh_build_after_updates(g, updates, eta):
    engine = RQTreeEngine.build(g.copy(), seed=0)
    engine.query(0, eta)  # cache bounds that the updates outlive
    n = g.num_nodes
    ops = [("set", u % n, v % n, p) for u, v, p in updates if u % n != v % n]
    engine.apply(ops)
    applied = g.copy()
    apply_to_graph(applied, normalize_updates(ops))
    static = RQTreeEngine.build(applied, seed=99)
    # LB answers are clustering-independent: they must agree exactly.
    assert engine.query(0, eta).nodes == static.query(0, eta).nodes


@COMMON
@given(small_uncertain_graphs(), st.floats(0.1, 0.9))
def test_lb_answer_contained_in_exact_answer(g, eta):
    if g.num_arcs > 14:
        return
    engine = RQTreeEngine.build(g, seed=1)
    truth = exact_reliability_search(g, [0], eta)
    assert engine.query(0, eta).nodes <= truth


# ---------------------------------------------------------------------
# Condensation losslessness
# ---------------------------------------------------------------------
@st.composite
def graphs_with_certain_arcs(draw, max_nodes=5):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    arcs = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.sampled_from([0.3, 0.7, 1.0, 1.0]),
            ),
            min_size=1,
            max_size=10,
        )
    )
    g = UncertainGraph(n)
    for u, v, p in arcs:
        if u != v:
            g.add_arc(u, v, p)
    return g


@COMMON
@given(graphs_with_certain_arcs())
def test_condensation_preserves_reliability(g):
    if g.num_arcs > 12:
        return
    condensation = contract_certain_sccs(g)
    rep = condensation.representative_of
    for target in range(g.num_nodes):
        original = exact_reliability(g, [0], target)
        condensed = exact_reliability(
            condensation.graph, [rep[0]], rep[target]
        )
        assert math.isclose(original, condensed, abs_tol=1e-9)


# ---------------------------------------------------------------------
# Stratified estimator exactness at full stratification
# ---------------------------------------------------------------------
@COMMON
@given(small_uncertain_graphs(max_arcs=6))
def test_full_stratification_matches_exact(g):
    if g.num_arcs > 6 or g.num_arcs == 0:
        return
    target = g.num_nodes - 1
    estimate = stratified_reliability(
        g, [0], target, num_samples=4, num_strata_arcs=g.num_arcs, seed=0
    )
    exact = exact_reliability(g, [0], target)
    assert math.isclose(estimate, exact, abs_tol=1e-9)
