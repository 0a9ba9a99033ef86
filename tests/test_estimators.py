"""Tests for the estimator portfolio and the cost-based query planner.

Covers the contracts the portfolio introduces:

* every estimator agrees with the exact reliability oracle on small
  graphs (bit-exact for ``exact``, a K=20000 binomial bound for the
  samplers);
* the planner's decisions are pure functions of the query (same seed,
  same plan);
* the exact estimator falls back to seeded MC when any cap trips —
  including the in-flight state budget that can fire mid-computation;
* one typed :class:`InvalidMethodError` from the registry on every
  ``method=`` surface;
* registry-driven cacheability in the service's result cache (the
  ``lb+``/``exact`` caching regression);
* ``planner.*`` counters and per-estimator latency histograms in the
  metrics snapshot;
* exact answers bit-identical across shard counts.
"""

from __future__ import annotations

import math

import pytest

from repro import RQTreeEngine, UncertainGraph
from repro.core.detection import reliability_scores
from repro.errors import InvalidMethodError
from repro.estimators import (
    AUTO,
    EstimateRequest,
    PortfolioConfig,
    QueryPlanner,
    available_methods,
    get_estimator,
    is_cacheable,
    methods_supporting_max_hops,
    sampling_methods,
    treewidth_upper_bound,
    validate_method,
)
from repro.graph.exact import exact_reliability
from repro.graph.generators import uncertain_gnp, uncertain_path
from repro.resilience import QueryBudget
from repro.service.metrics import MetricsRegistry, get_registry
from repro.service.server import ReliabilityService
from repro.shard.engine import ShardedRQTreeEngine

ALL_METHODS = ("lb", "lb+", "mc", "rss", "lazy", "exact")
SAMPLERS = ("mc", "rss", "lazy")

#: Worlds for the sampler parity tests; with K = 20000 a true
#: probability p is estimated within ~4.5 standard deviations by
#: +/- 4.5 * sqrt(0.25 / K) ~= 0.016 (false-failure odds < 1e-4).
PARITY_WORLDS = 20000
PARITY_TOLERANCE = 4.5 * math.sqrt(0.25 / PARITY_WORLDS)


@pytest.fixture(scope="module")
def parity_graph():
    """A small sparse digraph the exact oracle can handle quickly
    (7 of 10 nodes reachable from node 0 with non-trivial mass)."""
    return uncertain_gnp(10, 0.15, (0.3, 0.95), seed=7)


@pytest.fixture(scope="module")
def parity_engine(parity_graph):
    return RQTreeEngine.build(parity_graph, seed=3)


@pytest.fixture(scope="module")
def parity_oracle(parity_graph):
    return {
        t: exact_reliability(parity_graph, [0], t)
        for t in range(parity_graph.num_nodes)
    }


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_available_methods(self):
        assert available_methods() == (
            "auto", "lb", "lb+", "mc", "rss", "lazy", "exact",
        )
        assert AUTO not in available_methods(include_auto=False)

    def test_sampling_methods(self):
        assert set(sampling_methods()) == set(SAMPLERS)

    def test_unknown_method_is_typed(self):
        with pytest.raises(InvalidMethodError) as excinfo:
            get_estimator("bogus")
        assert excinfo.value.method == "bogus"
        assert "auto" in excinfo.value.accepted
        assert isinstance(excinfo.value, ValueError)

    def test_max_hops_validation(self):
        validate_method("lb", max_hops=2)
        with pytest.raises(InvalidMethodError) as excinfo:
            validate_method("lb+", max_hops=2)
        assert excinfo.value.feature == "max_hops"
        assert "lb+" not in methods_supporting_max_hops()

    def test_capability_flags(self):
        assert get_estimator("exact").exact
        assert get_estimator("lb").deterministic_unseeded
        assert not get_estimator("mc").deterministic_unseeded
        for name in SAMPLERS:
            assert get_estimator(name).samples_worlds


# ----------------------------------------------------------------------
# Exact-oracle parity
# ----------------------------------------------------------------------
class TestOracleParity:
    @pytest.mark.parametrize("method", SAMPLERS)
    def test_sampler_estimates_match_oracle(
        self, parity_engine, parity_oracle, method
    ):
        result = parity_engine.query(
            [0], 0.2, method=method, seed=97, num_samples=PARITY_WORLDS
        )
        checked = 0
        for node, value in result.estimates.items():
            assert value == pytest.approx(
                parity_oracle[node], abs=PARITY_TOLERANCE
            ), f"{method} diverged from the oracle at node {node}"
            checked += 1
        assert checked >= 2

    def test_exact_is_bit_exact(self, parity_engine, parity_oracle):
        result = parity_engine.query([0], 0.2, method="exact")
        assert result.estimator == "exact"
        assert result.worlds_used == 0
        checked = 0
        for node, value in result.estimates.items():
            # The candidate set covers every oracle-positive node here,
            # so the subgraph restriction loses nothing: equality is
            # exact, not approximate.
            assert value == pytest.approx(parity_oracle[node], abs=1e-12)
            checked += 1
        assert checked >= 2

    def test_exact_answer_matches_oracle_decisions(
        self, parity_engine, parity_oracle
    ):
        eta = 0.3
        result = parity_engine.query([0], eta, method="exact")
        oracle_answer = {
            t for t, r in parity_oracle.items() if r >= eta * (1 - 1e-9)
        }
        assert result.nodes == oracle_answer

    def test_bounds_never_exceed_oracle(self, parity_engine, parity_oracle):
        for method in ("lb", "lb+"):
            result = parity_engine.query([0], 0.2, method=method)
            for node, value in result.estimates.items():
                assert value <= parity_oracle[node] + 1e-9, (
                    f"{method} claimed a bound above the true reliability"
                )


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------
class TestPlanner:
    def test_auto_decision_is_deterministic(self, parity_engine):
        results = [
            parity_engine.query(
                [0], 0.3, method="auto", seed=5, num_samples=500
            )
            for _ in range(3)
        ]
        assert len({r.estimator for r in results}) == 1
        assert len({r.planner_reason for r in results}) == 1
        assert results[0].nodes == results[1].nodes == results[2].nodes
        assert results[0].estimates == results[1].estimates

    def test_auto_picks_exact_on_tiny_subgraph(self):
        # Sparse, low width, and a large sample request: exact's
        # predicted cost undercuts every sampler, so zero variance wins.
        g = uncertain_gnp(12, 0.12, (0.3, 0.95), seed=3)
        engine = RQTreeEngine.build(g, seed=1)
        result = engine.query(
            [0], 0.3, method="auto", seed=5, num_samples=20000
        )
        assert result.estimator == "exact"
        assert "zero variance" in result.planner_reason

    def test_trivial_batch_goes_to_lb(self):
        g = uncertain_path([0.05, 0.05])
        engine = RQTreeEngine.build(g, seed=1)
        result = engine.query([0], 0.9, method="auto")
        assert result.estimator == "lb"
        assert "trivial" in result.planner_reason

    def test_deadline_budget_prefers_wilson_mc(self):
        g = uncertain_gnp(60, 0.08, (0.4, 0.9), seed=8)
        engine = RQTreeEngine.build(
            g, seed=2,
            planner_config=PortfolioConfig(exact_node_cap=0),
        )
        result = engine.query(
            [0], 0.25, method="auto", seed=3, num_samples=4000,
            budget=QueryBudget(deadline_seconds=5.0),
        )
        assert result.estimator == "mc"
        assert "Wilson" in result.planner_reason

    def test_plan_is_pure(self, parity_engine):
        request = EstimateRequest(
            graph=parity_engine.graph,
            sources=[0],
            eta=0.3,
            candidates=set(range(parity_engine.graph.num_nodes)),
            seed=5,
        )
        planner = QueryPlanner()
        first = planner.plan(request)
        second = planner.plan(request)
        assert first.estimator == second.estimator
        assert first.reason == second.reason
        assert first.predicted_seconds == second.predicted_seconds


# ----------------------------------------------------------------------
# Exact fallback
# ----------------------------------------------------------------------
class TestExactFallback:
    def test_width_cap_forces_seeded_mc(self):
        g = uncertain_gnp(12, 0.2, (0.4, 0.9), seed=13)
        engine = RQTreeEngine.build(
            g, seed=1, planner_config=PortfolioConfig(exact_width_cap=0),
        )
        result = engine.query([0], 0.2, method="exact", num_samples=400)
        assert result.estimator == "mc"
        assert "exact fallback" in result.planner_reason
        assert "exceeds cap" in result.planner_reason
        # Deterministic despite no caller seed: the fallback derives one.
        again = engine.query([0], 0.2, method="exact", num_samples=400)
        assert result.nodes == again.nodes
        assert result.estimates == again.estimates

    @pytest.mark.parametrize("past", ["width-cap", "node-cap"])
    def test_fallback_is_mc_at_the_query_seed(self, past):
        """Past its caps, explicit ``exact`` is the ``mc`` query at the
        same seed, so it and ``auto`` (which picks ``mc`` there) draw
        the same coins."""
        if past == "width-cap":
            graph = uncertain_gnp(12, 0.2, (0.4, 0.9), seed=13)
            config = PortfolioConfig(exact_width_cap=0)
        else:
            graph = uncertain_gnp(120, 0.03, (0.2, 0.8), seed=5)
            config = None
        engine = RQTreeEngine.build(graph, seed=1, planner_config=config)
        exact = engine.query([0], 0.2, method="exact", num_samples=400, seed=5)
        mc = engine.query([0], 0.2, method="mc", num_samples=400, seed=5)
        assert exact.estimator == "mc"
        assert len(exact.candidate_result.candidates) > 1
        assert exact.nodes == mc.nodes
        assert exact.statuses == mc.statuses
        assert exact.estimates == mc.estimates
        assert exact.worlds_used == mc.worlds_used

    def test_state_budget_trips_mid_computation(self, parity_graph):
        """The width probe can pass while the traversal still explodes;
        the in-flight state budget must catch that and fall back."""
        engine = RQTreeEngine.build(
            parity_graph, seed=1,
            planner_config=PortfolioConfig(exact_state_cap=1),
        )
        result = engine.query([0], 0.2, method="exact", num_samples=300)
        assert result.estimator == "mc"
        assert "state budget 1 exceeded mid-computation" in (
            result.planner_reason
        )

    def test_fallback_counter_increments(self, parity_graph):
        registry = get_registry()
        before = registry.counter("planner.exact_fallbacks").value
        engine = RQTreeEngine.build(
            parity_graph, seed=1,
            planner_config=PortfolioConfig(exact_width_cap=0),
        )
        engine.query([0], 0.2, method="exact", num_samples=100)
        after = registry.counter("planner.exact_fallbacks").value
        assert after == before + 1


# ----------------------------------------------------------------------
# One typed error on every surface
# ----------------------------------------------------------------------
class TestInvalidMethodSurfaces:
    def test_engine_query(self, parity_engine):
        with pytest.raises(InvalidMethodError, match="'auto'"):
            parity_engine.query([0], 0.3, method="montecarlo")

    def test_engine_max_hops_mismatch(self, parity_engine):
        with pytest.raises(InvalidMethodError, match="max_hops"):
            parity_engine.query([0], 0.3, method="lb+", max_hops=2)

    def test_detection_scores(self, parity_engine):
        with pytest.raises(InvalidMethodError):
            reliability_scores(parity_engine, [0], 0.3, method="bogus")

    def test_sharded_engine(self, grid_graph):
        engine = ShardedRQTreeEngine.build(
            grid_graph, shards=2, mode="inline", seed=0
        )
        try:
            with pytest.raises(InvalidMethodError):
                engine.query([0], 0.4, method="bogus")
            with pytest.raises(InvalidMethodError, match="max_hops"):
                engine.query([0], 0.4, method="exact", max_hops=2)
        finally:
            engine.close()

    def test_service_submit(self, parity_engine):
        service = ReliabilityService(parity_engine, workers=1)
        try:
            with pytest.raises(InvalidMethodError):
                service.submit([0], 0.3, method="bogus")
        finally:
            service.stop()


# ----------------------------------------------------------------------
# Cacheability from the registry (the lb+/exact caching regression)
# ----------------------------------------------------------------------
class TestCacheability:
    def test_deterministic_methods_cache_unseeded(self):
        for method in ("lb", "lb+", "exact"):
            assert is_cacheable(method, None), method
        for method in SAMPLERS + (AUTO,):
            assert not is_cacheable(method, None), method

    def test_everything_caches_with_a_seed(self):
        for method in available_methods():
            assert is_cacheable(method, 7), method

    def test_unknown_methods_never_cache(self):
        assert not is_cacheable("bogus", 7)

    @staticmethod
    def _query_twice(engine, method):
        """The service's cache stats after the same unseeded query ran
        twice, and the two answers."""
        with ReliabilityService(engine, workers=1) as service:
            first = service.query([0], 0.3, method=method, timeout=60)
            second = service.query([0], 0.3, method=method, timeout=60)
        return service.cache.stats, first, second

    def test_unseeded_packing_hits_the_cache(self, parity_engine):
        """Regression: ``lb+`` is deterministic, but the old predicate
        (``method == "lb" or seed is not None``) bypassed the cache for
        every unseeded non-lb query."""
        stats, first, second = self._query_twice(parity_engine, "lb+")
        assert stats.hits == 1
        assert stats.bypasses == 0
        assert second is first

    def test_unseeded_exact_hits_the_cache(self, parity_engine):
        stats, first, second = self._query_twice(parity_engine, "exact")
        assert stats.hits == 1
        assert second is first

    def test_unseeded_auto_bypasses(self, parity_engine):
        stats, first, second = self._query_twice(parity_engine, "auto")
        assert stats.hits == 0
        assert stats.bypasses == 2


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestPlannerMetrics:
    def test_decision_counters_and_latency_histograms(self, parity_graph):
        registry = MetricsRegistry()
        engine = RQTreeEngine.build(parity_graph, seed=1)
        from repro.service import metrics as metrics_module

        previous = metrics_module.get_registry
        metrics_module.get_registry = lambda: registry
        try:
            engine.query([0], 0.3, method="auto", seed=5, num_samples=200)
            engine.query([0], 0.3, method="lazy", seed=5, num_samples=200)
        finally:
            metrics_module.get_registry = previous
        snapshot = registry.snapshot()
        counters = snapshot["counters"]
        assert counters["planner.decisions"] == 1
        per_estimator = [
            name for name in counters
            if name.startswith("planner.decisions.")
        ]
        assert len(per_estimator) == 1
        assert counters[per_estimator[0]] == 1
        histograms = snapshot["histograms"]
        assert "planner.plan_seconds" in histograms
        assert "planner.cost_error_seconds" in histograms
        assert "planner.regret_seconds" in histograms
        assert histograms["estimator.lazy.seconds"]["count"] >= 1


# ----------------------------------------------------------------------
# Shard-count independence of the exact path
# ----------------------------------------------------------------------
class TestShardExactIndependence:
    def test_bit_identical_across_shard_counts(self, grid_graph):
        results = {}
        for shards in (1, 2, 4):
            engine = ShardedRQTreeEngine.build(
                grid_graph, shards=shards, mode="inline", seed=0
            )
            try:
                results[shards] = engine.query([0], 0.3, method="exact")
            finally:
                engine.close()
        baseline = results[1]
        assert baseline.estimator in ("exact", "mc")
        for shards in (2, 4):
            other = results[shards]
            assert other.nodes == baseline.nodes
            assert other.estimates == baseline.estimates
            assert other.statuses == baseline.statuses
            assert other.estimator == baseline.estimator


# ----------------------------------------------------------------------
# Treewidth probe
# ----------------------------------------------------------------------
class TestTreewidthProbe:
    def test_path_has_width_one(self):
        g = uncertain_path([0.5, 0.5, 0.5, 0.5])
        assert treewidth_upper_bound(g, set(range(5))) == 1

    def test_clique_width_is_n_minus_one(self):
        g = UncertainGraph(5)
        for u in range(5):
            for v in range(5):
                if u != v:
                    g.add_arc(u, v, 0.5)
        assert treewidth_upper_bound(g, set(range(5))) == 4

    def test_abort_above_returns_sentinel(self):
        g = UncertainGraph(6)
        for u in range(6):
            for v in range(6):
                if u != v:
                    g.add_arc(u, v, 0.5)
        assert treewidth_upper_bound(g, set(range(6)), abort_above=2) == 3
