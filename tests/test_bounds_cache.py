"""Tests for the cluster-bounds cache."""

from __future__ import annotations

import pytest

from repro import RQTreeEngine
from repro.core.bounds_cache import ClusterBoundsCache
from repro.core.outreach import general_outreach_upper_bound
from repro.graph.generators import nethept_like, uncertain_path


@pytest.fixture()
def engine():
    return RQTreeEngine.build(nethept_like(n=80, seed=3), seed=3)


class TestCache:
    def test_get_computes_once(self, engine):
        cache = ClusterBoundsCache()
        cluster = engine.tree.clusters[engine.tree.root]
        a = cache.get(engine.graph, cluster)
        b = cache.get(engine.graph, cluster)
        assert a == b
        assert cache.hits == 1
        assert cache.misses == 1

    def test_value_matches_theorem5_bound(self, engine):
        cache = ClusterBoundsCache()
        for cluster in list(engine.tree.leaves())[:5]:
            cached = cache.get(engine.graph, cluster)
            direct = general_outreach_upper_bound(
                engine.graph, cluster.members
            )
            # The cache adds the conservative inflation; it can only be
            # (infinitesimally) larger.
            assert cached >= direct - 1e-12
            assert cached <= direct + 1e-8

    def test_invalidate_specific(self, engine):
        cache = ClusterBoundsCache()
        cluster = engine.tree.clusters[engine.tree.leaf_of(0)]
        cache.get(engine.graph, cluster)
        assert cache.peek(cluster.index) is not None
        cache.invalidate([cluster.index])
        assert cache.peek(cluster.index) is None

    def test_clear(self, engine):
        cache = ClusterBoundsCache()
        for node in range(5):
            cache.get(
                engine.graph,
                engine.tree.clusters[engine.tree.leaf_of(node)],
            )
        assert len(cache) == 5
        cache.clear()
        assert len(cache) == 0


class TestEngineIntegration:
    def test_answers_identical_with_and_without_cache(self):
        graph = nethept_like(n=100, seed=4)
        engine_cached = RQTreeEngine.build(graph, seed=4)
        engine_plain = RQTreeEngine(graph, engine_cached.tree)
        # Disable the second engine's cache by replacing it with a
        # never-hitting stand-in: easiest is to just compare against
        # candidates computed with bounds_cache=None.
        from repro.core.candidates import generate_candidates

        for s in (0, 10, 50, 99):
            for eta in (0.3, 0.6, 0.9):
                with_cache = engine_cached.query(s, eta).nodes
                plain = generate_candidates(
                    graph, engine_cached.tree, [s], eta
                )
                from repro.core.verification import verify_lower_bound

                without_cache = verify_lower_bound(
                    graph, [s], eta, plain.candidates
                )
                assert with_cache == without_cache

    def test_repeat_queries_hit_cache(self):
        graph = nethept_like(n=100, seed=4)
        engine = RQTreeEngine.build(graph, seed=4)
        engine.query(0, 0.6)
        hits_before = engine.bounds_cache.hits
        engine.query(0, 0.6)
        assert engine.bounds_cache.hits > hits_before

    def test_multi_source_uses_cache(self):
        graph = nethept_like(n=100, seed=4)
        engine = RQTreeEngine.build(graph, seed=4)
        engine.query([0, 50], 0.6)
        total = engine.bounds_cache.hits + engine.bounds_cache.misses
        assert total > 0

    def test_dynamic_engine_invalidates_on_update(self):
        graph = uncertain_path([0.3, 0.3, 0.3, 0.3])
        engine = RQTreeEngine.build(graph, seed=0)
        # Prime the cache and verify the update path clears affected
        # clusters.
        engine.query(0, 0.5)
        engine.apply([("set", 0, 4, 0.9)])
        # The leaf of node 0 crossed by the new arc must be invalidated.
        leaf_index = engine.tree.leaf_of(0)
        assert engine.bounds_cache.peek(leaf_index) is None
        # Queries remain correct after the update.
        assert 4 in engine.query(0, 0.5).nodes

    def test_dynamic_update_changes_cached_answer_correctly(self):
        # The regression the cache could introduce: a stale bound that
        # wrongly accepts a cluster after an arc insertion.
        graph = uncertain_path([0.2])
        graph_copy = graph.copy()
        extra = graph_copy.add_node()  # node 2, isolated
        engine = RQTreeEngine.build(graph_copy, seed=0)
        assert extra not in engine.query(0, 0.5).nodes
        engine.apply([("set", 0, extra, 0.9)])
        assert extra in engine.query(0, 0.5).nodes

    def test_apply_invalidates_exactly_the_crossed_clusters(self):
        graph = nethept_like(n=100, seed=4)
        engine = RQTreeEngine.build(graph, seed=4)
        tree = engine.tree
        u, v = 3, 97
        assert not graph.has_arc(u, v)
        for cluster in tree.clusters:
            engine.bounds_cache.get(graph, cluster)
        # Deleting an absent arc changes nothing and invalidates nothing.
        assert engine.apply([("delete", u, v)]) == 0
        assert len(engine.bounds_cache) == tree.num_clusters
        # The new arc leaves exactly the clusters on u's leaf-to-root
        # path below the first one that contains v.
        assert engine.apply([("set", u, v, 0.5)]) == 1
        dropped = 0
        for cluster in tree.clusters:
            crossed = u in cluster.members and v not in cluster.members
            assert (engine.bounds_cache.peek(cluster.index) is None) == crossed
            dropped += crossed
        assert dropped >= 1
