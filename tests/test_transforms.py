"""Tests for graph transforms and the explain/trace feature."""

from __future__ import annotations

import pytest

from repro import RQTreeEngine, UncertainGraph
from repro.errors import GraphError
from repro.graph.generators import nethept_like, uncertain_path
from repro.graph.transforms import (
    make_undirected,
    map_probabilities,
    power_probabilities,
    scale_probabilities,
    threshold_backbone,
    weighted_cascade,
)


class TestMapProbabilities:
    def test_identity(self, fig1_graph):
        mapped = map_probabilities(fig1_graph, lambda p: p)
        assert sorted(mapped.arcs()) == pytest.approx(sorted(fig1_graph.arcs()))

    def test_clamping(self):
        g = uncertain_path([0.5])
        mapped = map_probabilities(g, lambda p: 5.0)
        assert mapped.probability(0, 1) == 1.0
        floored = map_probabilities(g, lambda p: -1.0)
        assert floored.probability(0, 1) > 0.0

    def test_input_not_mutated(self, fig1_graph):
        before = sorted(fig1_graph.arcs())
        map_probabilities(fig1_graph, lambda p: p / 2)
        assert sorted(fig1_graph.arcs()) == before


class TestScaleAndPower:
    def test_scale_down(self):
        g = uncertain_path([0.8, 0.6])
        scaled = scale_probabilities(g, 0.5)
        assert scaled.probability(0, 1) == pytest.approx(0.4)
        assert scaled.probability(1, 2) == pytest.approx(0.3)

    def test_scale_up_clamps(self):
        g = uncertain_path([0.8])
        scaled = scale_probabilities(g, 2.0)
        assert scaled.probability(0, 1) == 1.0

    def test_power_weakens_uncertain_arcs_more(self):
        g = uncertain_path([0.9, 0.3])
        powered = power_probabilities(g, 2.0)
        # Relative loss is larger for the weaker arc.
        strong_ratio = powered.probability(0, 1) / 0.9
        weak_ratio = powered.probability(1, 2) / 0.3
        assert weak_ratio < strong_ratio

    def test_invalid_parameters(self):
        g = uncertain_path([0.5])
        with pytest.raises(GraphError):
            scale_probabilities(g, 0.0)
        with pytest.raises(GraphError):
            power_probabilities(g, -1.0)

    def test_degradation_shrinks_reliable_set(self):
        graph = nethept_like(n=120, seed=1)
        engine_full = RQTreeEngine.build(graph, seed=1)
        degraded = scale_probabilities(graph, 0.5)
        engine_degraded = RQTreeEngine.build(degraded, seed=1)
        source = next(u for u in graph.nodes() if graph.out_degree(u) > 1)
        full = engine_full.query(source, 0.4).nodes
        weak = engine_degraded.query(source, 0.4).nodes
        assert weak <= full


class TestBackbone:
    def test_keeps_only_strong_arcs(self, fig1_graph):
        backbone = threshold_backbone(fig1_graph, 0.5)
        for _, _, p in backbone.arcs():
            assert p >= 0.5
        # Figure 1 arcs >= 0.5: s->w(0.6), s->u(0.5), w->u(0.5),
        # v->t(0.7), t->v(0.5).
        assert backbone.num_arcs == 5

    def test_tau_one_keeps_certain_arcs_only(self):
        g = UncertainGraph(3)
        g.add_arc(0, 1, 1.0)
        g.add_arc(1, 2, 0.99)
        assert threshold_backbone(g, 1.0).num_arcs == 1

    def test_invalid_tau(self, fig1_graph):
        with pytest.raises(GraphError):
            threshold_backbone(fig1_graph, 0.0)
        with pytest.raises(GraphError):
            threshold_backbone(fig1_graph, 1.5)


class TestSymmetrizeAndCascade:
    def test_make_undirected_reciprocal(self, fig1_graph):
        sym = make_undirected(fig1_graph)
        for u, v, _ in sym.arcs():
            assert sym.has_arc(v, u)

    def test_make_undirected_noisy_or_on_antiparallel(self):
        g = UncertainGraph(2)
        g.add_arc(0, 1, 0.5)
        g.add_arc(1, 0, 0.5)
        sym = make_undirected(g)
        assert sym.probability(0, 1) == pytest.approx(0.75)

    def test_weighted_cascade_in_degree(self):
        g = UncertainGraph(3)
        g.add_arc(0, 2, 0.9)
        g.add_arc(1, 2, 0.1)
        wc = weighted_cascade(g)
        assert wc.probability(0, 2) == pytest.approx(0.5)
        assert wc.probability(1, 2) == pytest.approx(0.5)


class TestExplain:
    def test_single_source_explain_mentions_acceptance(self):
        graph = nethept_like(n=100, seed=2)
        engine = RQTreeEngine.build(graph, seed=2)
        text = engine.query(0, 0.6).explain()
        assert "accepted" in text
        assert "candidate generation" in text
        assert "verification [lb]" in text

    def test_trace_depths_decrease(self):
        graph = nethept_like(n=100, seed=2)
        engine = RQTreeEngine.build(graph, seed=2)
        trace = engine.query(0, 0.6).candidate_result.trace
        depths = [step.depth for step in trace]
        assert depths == sorted(depths, reverse=True)

    def test_trace_last_step_accepted(self):
        graph = nethept_like(n=100, seed=2)
        engine = RQTreeEngine.build(graph, seed=2)
        trace = engine.query(5, 0.6).candidate_result.trace
        assert trace[-1].accepted
        assert all(not step.accepted for step in trace[:-1])

    def test_trace_bounds_match_final(self):
        graph = nethept_like(n=100, seed=2)
        engine = RQTreeEngine.build(graph, seed=2)
        result = engine.query(5, 0.6).candidate_result
        assert result.trace[-1].bound == pytest.approx(
            result.final_upper_bound
        )

    def test_multi_source_explain(self):
        graph = nethept_like(n=100, seed=2)
        engine = RQTreeEngine.build(graph, seed=2)
        result = engine.query([0, 90], 0.6)
        text = result.explain()
        assert "cluster(s) evaluated" in text
        # Every selected cluster is marked accepted in the trace.
        accepted = {
            step.cluster_index
            for step in result.candidate_result.trace
            if step.accepted
        }
        assert set(result.candidate_result.selected_clusters) <= accepted

    def test_trace_via_values(self):
        graph = nethept_like(n=100, seed=2)
        engine = RQTreeEngine.build(graph, seed=2)
        trace = engine.query(7, 0.6).candidate_result.trace
        assert all(
            step.via in ("cache", "cheap", "flow", "witness") for step in trace
        )
        # A witness step is a certified rejection: U_out >= its bound >= eta.
        for step in trace:
            if step.via == "witness":
                assert not step.accepted
                assert step.bound >= 0.6

    def test_explain_marks_witness_bounds_as_lower_bounds(self):
        graph = nethept_like(n=100, seed=2)
        engine = RQTreeEngine.build(graph, seed=2)
        result = engine.query(7, 0.6).candidate_result
        lines = result.explain().splitlines()[1:]
        assert any(step.via == "witness" for step in result.trace)
        for step, line in zip(result.trace, lines):
            if step.via == "witness":
                assert f"U_out >= {step.bound:.4f}  [witness]" in line
            else:
                assert f"U_out <= {step.bound:.4f}  [{step.via}]" in line
