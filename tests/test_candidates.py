"""Unit tests for candidate generation (Section 4)."""

from __future__ import annotations

import random

import pytest

from repro import RQTreeEngine, build_rqtree
from repro.core.bounds_cache import ClusterBoundsCache
from repro.core.candidates import (
    generate_candidates,
    multi_source_candidates_exact,
    multi_source_candidates_greedy,
    single_source_candidates,
)
from repro.core.outreach import outreach_upper_bound
from repro.errors import (
    EmptySourceSetError,
    InvalidThresholdError,
    NodeNotFoundError,
)
from repro.graph.exact import exact_reliability_search
from repro.graph.generators import (
    biomine_like,
    nethept_like,
    uncertain_gnp,
    uncertain_path,
)


@pytest.fixture(scope="module")
def small_indexed():
    """Small random graphs paired with their RQ-trees (oracle range)."""
    pairs = []
    for seed in range(6):
        g = uncertain_gnp(7, 0.25, seed=seed)
        if 0 < g.num_arcs <= 16:
            tree, _ = build_rqtree(g, seed=seed)
            pairs.append((g, tree))
    assert pairs
    return pairs


class TestSingleSource:
    def test_no_false_negatives_against_exact(self, small_indexed):
        # The core guarantee (Observations 1-2): every true answer node
        # survives the filtering phase.
        for g, tree in small_indexed:
            for eta in (0.3, 0.5, 0.7):
                truth = exact_reliability_search(g, [0], eta)
                result = single_source_candidates(g, tree, 0, eta)
                assert truth <= result.candidates

    def test_source_always_candidate(self, small_indexed):
        g, tree = small_indexed[0]
        result = single_source_candidates(g, tree, 0, 0.5)
        assert 0 in result.candidates

    def test_stops_at_first_qualifying_cluster(self, fig1_graph, fig1_names):
        tree, _ = build_rqtree(fig1_graph, seed=1)
        result = single_source_candidates(
            fig1_graph, tree, fig1_names["s"], 0.5
        )
        assert result.final_upper_bound < 0.5
        # The selected cluster really is on s's path to the root.
        path_indices = [
            c.index for c in tree.path_to_root(fig1_names["s"])
        ]
        assert result.selected_clusters[0] in path_indices

    def test_high_eta_prunes_more(self, medium_graph, medium_engine):
        low = single_source_candidates(
            medium_graph, medium_engine.tree, 0, 0.3
        )
        high = single_source_candidates(
            medium_graph, medium_engine.tree, 0, 0.9
        )
        assert len(high.candidates) <= len(low.candidates)

    def test_instrumentation_counters(self, medium_graph, medium_engine):
        result = single_source_candidates(
            medium_graph, medium_engine.tree, 5, 0.6
        )
        assert 1 <= result.clusters_visited <= medium_engine.tree.height + 1
        assert result.flow_calls <= result.clusters_visited
        assert result.max_subgraph_nodes >= 1

    def test_invalid_eta_rejected(self, medium_graph, medium_engine):
        for bad in (0.0, 1.0, -0.5, float("nan")):
            with pytest.raises(InvalidThresholdError):
                single_source_candidates(
                    medium_graph, medium_engine.tree, 0, bad
                )

    def test_missing_source_rejected(self, medium_graph, medium_engine):
        with pytest.raises(NodeNotFoundError):
            single_source_candidates(
                medium_graph, medium_engine.tree, 10**6, 0.5
            )


def _algorithm_1_walk(graph, tree, source, eta, bounds_cache=None):
    """The Section 4.2 walk with Algorithm 1 on every cluster it visits.

    Returns ``(candidates, selected cluster, final bound, visited,
    flow solves)`` — what the walk decides, without the flow witness.
    """
    visited = 0
    solves = 0
    for cluster in tree.path_to_root(source):
        visited += 1
        if bounds_cache is not None:
            cached = bounds_cache.get(graph, cluster)
            if cached < eta:
                return cluster.members, cluster.index, cached, visited, solves
        computation = outreach_upper_bound(
            graph, [source], cluster.members, cheap_accept_below=eta
        )
        solves += computation.used_flow
        if computation.upper_bound < eta:
            return (
                cluster.members, cluster.index, computation.upper_bound,
                visited, solves,
            )
    raise AssertionError("the root cluster always qualifies")


def _assert_same_walk(graph, tree, source, eta, bounds_cache=None,
                      reference_cache=None):
    """The witness walk decides exactly what the Algorithm-1 walk does."""
    want = _algorithm_1_walk(graph, tree, source, eta, reference_cache)
    got = single_source_candidates(
        graph, tree, source, eta, bounds_cache=bounds_cache
    )
    assert got.candidates == set(want[0])
    assert got.selected_clusters == [want[1]]
    assert got.final_upper_bound == want[2]
    assert got.clusters_visited == want[3]
    assert got.flow_calls <= want[4]
    witnessed = [step for step in got.trace if step.via == "witness"]
    assert all(not step.accepted and step.bound >= eta for step in witnessed)
    return len(witnessed)


class TestWitnessWalkIdentity:
    """The flow witness changes no decision of the Section 4.2 walk."""

    ETAS = (0.3, 0.5, 0.7)

    @pytest.mark.parametrize("graph", [
        nethept_like(n=80, seed=2),
        uncertain_gnp(60, 0.05, (0.1, 0.95), seed=5),
        biomine_like(n=80, seed=3),
    ], ids=["nethept", "gnp", "biomine"])
    def test_every_node_every_eta(self, graph):
        tree, _ = build_rqtree(graph, seed=4)
        witnessed = 0
        for source in range(graph.num_nodes):
            for eta in self.ETAS:
                witnessed += _assert_same_walk(graph, tree, source, eta)
                witnessed += _assert_same_walk(
                    graph, tree, source, eta,
                    bounds_cache=ClusterBoundsCache(),
                    reference_cache=ClusterBoundsCache(),
                )
        assert witnessed > 0  # the witness really ran

    def test_maintained_index_after_updates(self):
        graph = biomine_like(n=80, seed=6)
        engine = RQTreeEngine.build(graph, seed=6)
        rng = random.Random(6)
        for step in range(200):
            if step % 20 == 0:
                # Fill the engine's bounds cache, so the walks below
                # also read entries that outlived later updates.
                for source in range(graph.num_nodes):
                    engine.candidates(source, 0.5)
            u, v = rng.sample(range(graph.num_nodes), 2)
            op = rng.choice(["set", "insert", "delete"])
            engine.apply([(op, u, v, round(rng.uniform(0.05, 1.0), 3))])
        witnessed = 0
        for source in range(graph.num_nodes):
            for eta in self.ETAS:
                witnessed += _assert_same_walk(
                    engine.graph, engine.tree, source, eta,
                    bounds_cache=engine.bounds_cache,
                    reference_cache=ClusterBoundsCache(),
                )
        assert witnessed > 0


class TestSubgraphSizes:
    """Table 1's ñ and m̃ count only boundary subgraphs a flow ran on."""

    def test_cache_and_witness_steps_add_nothing(self):
        graph = nethept_like(n=80, seed=2)
        tree, _ = build_rqtree(graph, seed=4)
        cache = ClusterBoundsCache()
        checked = cache_steps = 0
        for eta in (0.3, 0.5, 0.7):
            for source in range(graph.num_nodes):
                pair = [source, (source + 40) % graph.num_nodes]
                for result in (
                    single_source_candidates(
                        graph, tree, source, eta, bounds_cache=cache
                    ),
                    multi_source_candidates_greedy(
                        graph, tree, pair, eta, bounds_cache=cache
                    ),
                ):
                    vias = {step.via for step in result.trace}
                    if not vias <= {"cache", "witness"}:
                        continue
                    checked += 1
                    cache_steps += "cache" in vias
                    assert result.max_subgraph_nodes == 0
                    assert result.max_subgraph_arcs == 0
        assert checked > 0 and cache_steps > 0


class TestMultiSourceGreedy:
    def test_no_false_negatives_against_exact(self, small_indexed):
        for g, tree in small_indexed:
            sources = [0, g.num_nodes - 1]
            for eta in (0.3, 0.6):
                truth = exact_reliability_search(g, sources, eta)
                result = multi_source_candidates_greedy(g, tree, sources, eta)
                assert truth <= result.candidates

    def test_all_sources_in_candidates(self, medium_graph, medium_engine):
        sources = [0, 50, 100]
        result = multi_source_candidates_greedy(
            medium_graph, medium_engine.tree, sources, 0.6
        )
        assert set(sources) <= result.candidates

    def test_combined_bound_below_eta(self, medium_graph, medium_engine):
        result = multi_source_candidates_greedy(
            medium_graph, medium_engine.tree, [0, 150], 0.6
        )
        assert result.final_upper_bound < 0.6

    def test_duplicate_sources_coalesce(self, medium_graph, medium_engine):
        a = multi_source_candidates_greedy(
            medium_graph, medium_engine.tree, [3, 3, 3], 0.6
        )
        b = single_source_candidates(medium_graph, medium_engine.tree, 3, 0.6)
        assert a.candidates == b.candidates

    def test_empty_sources_rejected(self, medium_graph, medium_engine):
        with pytest.raises(EmptySourceSetError):
            multi_source_candidates_greedy(
                medium_graph, medium_engine.tree, [], 0.5
            )

    def test_union_of_selected_clusters(self, medium_graph, medium_engine):
        result = multi_source_candidates_greedy(
            medium_graph, medium_engine.tree, [0, 200], 0.6
        )
        union = set()
        for index in result.selected_clusters:
            union |= medium_engine.tree.clusters[index].members
        assert union == result.candidates


class TestMultiSourceExact:
    def test_no_false_negatives_against_exact(self, small_indexed):
        for g, tree in small_indexed:
            sources = [0, g.num_nodes // 2]
            for eta in (0.3, 0.6):
                truth = exact_reliability_search(g, sources, eta)
                result = multi_source_candidates_exact(g, tree, sources, eta)
                assert truth <= result.candidates

    def test_exact_never_larger_than_greedy(self, small_indexed):
        # The DP optimizes |C_union|; the heuristic cannot beat it.
        for g, tree in small_indexed:
            sources = [0, g.num_nodes - 1]
            greedy = multi_source_candidates_greedy(g, tree, sources, 0.5)
            exact = multi_source_candidates_exact(g, tree, sources, 0.5)
            assert len(exact.candidates) <= len(greedy.candidates)

    def test_exact_on_medium_graph(self, medium_graph, medium_engine):
        sources = [0, 120, 250]
        result = multi_source_candidates_exact(
            medium_graph, medium_engine.tree, sources, 0.6
        )
        assert set(sources) <= result.candidates
        assert result.final_upper_bound < 0.6

    def test_selected_clusters_disjoint(self, medium_graph, medium_engine):
        result = multi_source_candidates_exact(
            medium_graph, medium_engine.tree, [0, 299], 0.6
        )
        seen = set()
        for index in result.selected_clusters:
            members = medium_engine.tree.clusters[index].members
            assert not (seen & members)
            seen |= members


class TestDispatch:
    def test_single_source_dispatch(self, medium_graph, medium_engine):
        via_dispatch = generate_candidates(
            medium_graph, medium_engine.tree, [7], 0.6
        )
        direct = single_source_candidates(
            medium_graph, medium_engine.tree, 7, 0.6
        )
        assert via_dispatch.candidates == direct.candidates

    def test_multi_source_modes(self, medium_graph, medium_engine):
        greedy = generate_candidates(
            medium_graph,
            medium_engine.tree,
            [7, 200],
            0.6,
            multi_source_mode="greedy",
        )
        exact = generate_candidates(
            medium_graph,
            medium_engine.tree,
            [7, 200],
            0.6,
            multi_source_mode="exact",
        )
        assert len(exact.candidates) <= len(greedy.candidates)

    def test_unknown_mode_rejected(self, medium_graph, medium_engine):
        with pytest.raises(ValueError):
            generate_candidates(
                medium_graph,
                medium_engine.tree,
                [0, 1],
                0.5,
                multi_source_mode="magic",
            )

    def test_empty_sources_rejected(self, medium_graph, medium_engine):
        with pytest.raises(EmptySourceSetError):
            generate_candidates(medium_graph, medium_engine.tree, [], 0.5)


class TestPathGraphPruning:
    def test_distant_nodes_pruned_on_weak_path(self):
        # 0 -(0.9)- 1 -(0.1)- 2 -(0.9)- 3: with eta = 0.5, nodes past the
        # weak arc must be pruned by a qualifying cluster.
        g = uncertain_path([0.9, 0.1, 0.9])
        tree, _ = build_rqtree(g, seed=0)
        result = single_source_candidates(g, tree, 0, 0.5)
        truth = exact_reliability_search(g, [0], 0.5)
        assert truth <= result.candidates
        assert truth == {0, 1}


class TestExactDPFrontierCap:
    def test_tiny_frontier_still_sound(self, small_indexed):
        # Even with the Pareto frontier capped to a single entry per
        # cluster the DP must return a *valid* cover (no true answer
        # pruned) — the cap only affects optimality.
        for g, tree in small_indexed:
            sources = [0, g.num_nodes - 1]
            truth = exact_reliability_search(g, sources, 0.5)
            result = multi_source_candidates_exact(
                g, tree, sources, 0.5, max_frontier=1
            )
            assert truth <= result.candidates

    def test_larger_frontier_never_larger_candidates(self, small_indexed):
        for g, tree in small_indexed:
            sources = [0, g.num_nodes - 1]
            capped = multi_source_candidates_exact(
                g, tree, sources, 0.5, max_frontier=1
            )
            full = multi_source_candidates_exact(
                g, tree, sources, 0.5, max_frontier=256
            )
            assert len(full.candidates) <= len(capped.candidates)
