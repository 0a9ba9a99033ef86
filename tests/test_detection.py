"""Tests for reliability detection, scoring, and top-k search."""

from __future__ import annotations

import pytest

from repro import RQTreeEngine
from repro.core.detection import (
    detect_reliability,
    reliability_scores,
    top_k_reliable,
)
from repro.errors import (
    EmptySourceSetError,
    InjectedFault,
    NodeNotFoundError,
    SamplingKernelError,
)
from repro.graph.exact import exact_reliability
from repro.graph.generators import figure1_graph, uncertain_gnp, uncertain_path
from repro.resilience import FaultPlan


@pytest.fixture(scope="module")
def fig1_engine():
    g, names = figure1_graph()
    return g, names, RQTreeEngine.build(g, seed=0)


class TestDetectReliability:
    def test_brackets_exact_value(self, fig1_engine):
        g, names, engine = fig1_engine
        result = detect_reliability(
            engine, names["s"], names["u"],
            tolerance=0.05, method="mc", num_samples=3000, seed=1,
        )
        # R(s, u) = 0.65 exactly (Example 1).
        assert result.low <= 0.65 + 0.05
        assert result.high >= 0.65 - 0.05
        assert result.width <= 0.05 + 1e-12

    def test_lb_method_brackets_path_probability(self, fig1_engine):
        g, names, engine = fig1_engine
        # LB semantics: the bracketed value is L_R(s, u) = 0.5.
        result = detect_reliability(
            engine, names["s"], names["u"], tolerance=0.02, method="lb"
        )
        assert result.low <= 0.5 <= result.high + 0.02

    def test_target_is_source(self, fig1_engine):
        _, names, engine = fig1_engine
        result = detect_reliability(engine, names["s"], names["s"])
        assert result.low == result.high == 1.0
        assert result.queries_issued == 0

    def test_unreachable_target(self):
        g = uncertain_path([0.5])
        g2 = g.copy()
        isolated = g2.add_node()
        engine = RQTreeEngine.build(g2, seed=0)
        result = detect_reliability(
            engine, 0, isolated, tolerance=0.1, method="lb"
        )
        assert result.high <= 0.1 + 1e-12

    def test_query_count_is_logarithmic(self, fig1_engine):
        _, names, engine = fig1_engine
        result = detect_reliability(
            engine, names["s"], names["w"], tolerance=0.01, method="lb"
        )
        # ceil(log2(1 / 0.01)) = 7 probes.
        assert result.queries_issued <= 8

    def test_invalid_tolerance(self, fig1_engine):
        _, names, engine = fig1_engine
        with pytest.raises(ValueError):
            detect_reliability(engine, names["s"], names["w"], tolerance=0.0)

    def test_missing_target(self, fig1_engine):
        _, names, engine = fig1_engine
        with pytest.raises(NodeNotFoundError):
            detect_reliability(engine, names["s"], 99)


class TestReliabilityScores:
    def test_lb_scores_are_lower_bounds(self):
        for seed in range(3):
            g = uncertain_gnp(6, 0.3, seed=seed)
            if g.num_arcs > 16 or g.num_arcs == 0:
                continue
            engine = RQTreeEngine.build(g, seed=seed)
            scores = reliability_scores(engine, 0, 0.2, method="lb")
            for node, score in scores.items():
                if node == 0:
                    continue
                assert score <= exact_reliability(g, [0], node) + 1e-9

    def test_sources_score_one(self, fig1_engine):
        _, names, engine = fig1_engine
        scores = reliability_scores(engine, names["s"], 0.3)
        assert scores[names["s"]] == 1.0

    def test_mc_scores_near_exact(self, fig1_engine):
        g, names, engine = fig1_engine
        scores = reliability_scores(
            engine, names["s"], 0.3, method="mc", num_samples=4000, seed=2
        )
        assert scores[names["u"]] == pytest.approx(0.65, abs=0.04)

    def test_scores_respect_eta_filter(self, fig1_engine):
        _, names, engine = fig1_engine
        scores = reliability_scores(engine, names["s"], 0.55, method="lb")
        for node, score in scores.items():
            if node != names["s"]:
                assert score >= 0.55

    def test_unknown_method(self, fig1_engine):
        _, names, engine = fig1_engine
        with pytest.raises(ValueError):
            reliability_scores(engine, names["s"], 0.5, method="magic")

    def test_empty_sources(self, fig1_engine):
        _, _, engine = fig1_engine
        with pytest.raises(EmptySourceSetError):
            reliability_scores(engine, [], 0.5)


class TestTopK:
    def test_ranked_by_score(self, fig1_engine):
        _, names, engine = fig1_engine
        ranked = top_k_reliable(engine, names["s"], 3, method="lb")
        scores = [score for _, score in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_best_node_is_strongest_neighbour(self, fig1_engine):
        _, names, engine = fig1_engine
        ranked = top_k_reliable(engine, names["s"], 1, method="lb")
        assert ranked[0][0] == names["w"]  # direct 0.6 arc wins

    def test_k_larger_than_reachable(self):
        g = uncertain_path([0.9])
        engine = RQTreeEngine.build(g, seed=0)
        ranked = top_k_reliable(engine, 0, 10)
        assert len(ranked) == 1  # only node 1 is reachable

    def test_sources_excluded_by_default(self, fig1_engine):
        _, names, engine = fig1_engine
        ranked = top_k_reliable(engine, names["s"], 4)
        assert names["s"] not in {node for node, _ in ranked}

    def test_include_sources_flag(self, fig1_engine):
        _, names, engine = fig1_engine
        ranked = top_k_reliable(
            engine, names["s"], 5, include_sources=True
        )
        assert ranked[0] == (names["s"], 1.0)

    def test_deterministic_lb(self, fig1_engine):
        _, names, engine = fig1_engine
        a = top_k_reliable(engine, names["s"], 3)
        b = top_k_reliable(engine, names["s"], 3)
        assert a == b

    def test_invalid_k(self, fig1_engine):
        _, names, engine = fig1_engine
        with pytest.raises(ValueError):
            top_k_reliable(engine, names["s"], 0)

    def test_eta_floor_terminates_on_sparse_graph(self):
        g = uncertain_path([0.05])
        engine = RQTreeEngine.build(g, seed=0)
        ranked = top_k_reliable(engine, 0, 5, eta_floor=0.01)
        assert len(ranked) <= 1


class TestKernelFailure:
    """Detection and ranking cannot carry a partial answer, so a kernel
    failure raises instead of passing a degraded answer off as real."""

    @pytest.mark.parametrize("point", ["mc.kernel.chunk", "csr.snapshot"])
    def test_detect_raises(self, fig1_engine, point):
        _, names, engine = fig1_engine
        with FaultPlan({point: "always"}) as plan:
            with pytest.raises(SamplingKernelError) as raised:
                detect_reliability(
                    engine, names["s"], names["u"], method="mc",
                    num_samples=500, seed=1,
                )
        assert plan.hits(point) >= 1
        assert isinstance(raised.value.error, InjectedFault)

    @pytest.mark.parametrize("method", ["mc", "lazy", "rss"])
    def test_top_k_and_scores_raise(self, fig1_engine, method):
        _, names, engine = fig1_engine
        with FaultPlan({"mc.kernel.chunk": "always"}):
            with pytest.raises(SamplingKernelError):
                top_k_reliable(
                    engine, names["s"], 3, method=method,
                    num_samples=500, seed=1,
                )
            with pytest.raises(SamplingKernelError):
                reliability_scores(
                    engine, names["s"], 0.3, method=method,
                    num_samples=500, seed=1,
                )

    def test_answers_unchanged_once_the_fault_is_gone(self, fig1_engine):
        _, names, engine = fig1_engine
        before = detect_reliability(engine, names["s"], names["u"], seed=1)
        with FaultPlan({"mc.kernel.chunk": "always"}):
            with pytest.raises(SamplingKernelError):
                detect_reliability(engine, names["s"], names["u"], seed=1)
        after = detect_reliability(engine, names["s"], names["u"], seed=1)
        assert after == before
        assert after.low <= 0.65 + 0.05 and after.high >= 0.65 - 0.05
