"""Unit tests for the outreach upper bound (Algorithm 1, Theorems 1-2, 5)."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import UncertainGraph, build_rqtree
from repro.core.outreach import (
    capacity_of,
    combine_upper_bounds,
    general_outreach_upper_bound,
    outreach_upper_bound,
    outreach_witness,
)
from repro.errors import EmptySourceSetError
from repro.graph.exact import exact_outreach
from repro.graph.generators import nethept_like, uncertain_gnp, uncertain_path


class TestCapacity:
    def test_capacity_formula(self):
        assert capacity_of(0.5) == pytest.approx(-math.log(0.5))

    def test_certain_arc_has_infinite_capacity(self):
        assert capacity_of(1.0) == math.inf

    def test_capacity_monotone(self):
        assert capacity_of(0.9) > capacity_of(0.5) > capacity_of(0.1)


class TestExample2:
    """The worked bounds of the paper's Example 2 / Figure 2."""

    def test_cluster_s_w(self, fig1_graph, fig1_names):
        result = outreach_upper_bound(
            fig1_graph,
            [fig1_names["s"]],
            {fig1_names["s"], fig1_names["w"]},
        )
        assert result.upper_bound == pytest.approx(0.80)
        assert result.used_flow

    def test_cluster_s_u_w(self, fig1_graph, fig1_names):
        result = outreach_upper_bound(
            fig1_graph,
            [fig1_names["s"]],
            {fig1_names["s"], fig1_names["u"], fig1_names["w"]},
        )
        assert result.upper_bound == pytest.approx(0.496)

    def test_leaf_cluster(self, fig1_graph, fig1_names):
        result = outreach_upper_bound(
            fig1_graph, [fig1_names["s"]], {fig1_names["s"]}
        )
        # Cut around {s}: arcs s->w (0.6), s->u (0.5): 1 - 0.4*0.5 = 0.8.
        assert result.upper_bound == pytest.approx(0.80)

    def test_root_cluster_is_zero(self, fig1_graph):
        result = outreach_upper_bound(
            fig1_graph, [0], set(range(5))
        )
        assert result.upper_bound == 0.0


class TestUpperBoundProperties:
    @pytest.mark.parametrize("seed", range(5))
    def test_bounds_exact_outreach(self, seed):
        # Theorem 1: U_out(S, C) >= R_out(S, C) on random small graphs.
        g = uncertain_gnp(6, 0.3, seed=seed)
        if g.num_arcs > 16 or g.num_arcs == 0:
            pytest.skip("outside oracle range")
        cluster = {0, 1, 2}
        upper = outreach_upper_bound(g, [0], cluster).upper_bound
        exact = exact_outreach(g, [0], cluster)
        assert upper >= exact - 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_general_bound_dominates_flow_bound(self, seed):
        # Theorem 5's bound counts the whole boundary, so it can never be
        # tighter than the min-cut bound.
        g = uncertain_gnp(7, 0.3, seed=seed)
        cluster = {0, 1, 2, 3}
        flow_bound = outreach_upper_bound(g, [0], cluster).upper_bound
        cheap_bound = general_outreach_upper_bound(g, cluster)
        assert cheap_bound >= flow_bound - 1e-9

    def test_engines_agree(self, fig1_graph, fig1_names):
        cluster = {fig1_names["s"], fig1_names["w"], fig1_names["u"]}
        dinic = outreach_upper_bound(
            fig1_graph, [fig1_names["s"]], cluster, engine="dinic"
        )
        pr = outreach_upper_bound(
            fig1_graph, [fig1_names["s"]], cluster, engine="push_relabel"
        )
        assert dinic.upper_bound == pytest.approx(pr.upper_bound)

    def test_certain_arc_forces_bound_one(self):
        g = UncertainGraph(2)
        g.add_arc(0, 1, 1.0)
        result = outreach_upper_bound(g, [0], {0})
        assert result.upper_bound == 1.0
        assert general_outreach_upper_bound(g, {0}) == 1.0

    def test_source_outside_cluster_rejected(self, fig1_graph):
        with pytest.raises(ValueError):
            outreach_upper_bound(fig1_graph, [0], {1, 2})

    def test_empty_sources_rejected(self, fig1_graph):
        with pytest.raises(EmptySourceSetError):
            outreach_upper_bound(fig1_graph, [], {0})

    def test_subgraph_statistics(self, fig1_graph, fig1_names):
        cluster = {fig1_names["s"], fig1_names["w"]}
        result = outreach_upper_bound(fig1_graph, [fig1_names["s"]], cluster)
        # C u C'bar = {s, w} u {u, v}; arcs with tail in C: 4.
        assert result.subgraph_nodes == 4
        assert result.subgraph_arcs == 4

    def test_multi_source_bound_not_smaller(self, fig1_graph, fig1_names):
        cluster = {fig1_names["s"], fig1_names["w"], fig1_names["u"]}
        single = outreach_upper_bound(
            fig1_graph, [fig1_names["s"]], cluster
        ).upper_bound
        multi = outreach_upper_bound(
            fig1_graph, [fig1_names["s"], fig1_names["u"]], cluster
        ).upper_bound
        assert multi >= single - 1e-9


class TestCheapAccept:
    def test_cheap_accept_skips_flow(self):
        g = uncertain_path([0.1, 0.1, 0.1])
        # Boundary of {0, 1} is the single arc 1->2 with p = 0.1:
        # cheap bound 0.1 < 0.5 -> accept without a flow solve.
        result = outreach_upper_bound(
            g, [0], {0, 1}, cheap_accept_below=0.5
        )
        assert not result.used_flow
        assert math.isnan(result.max_flow)
        assert result.upper_bound == pytest.approx(0.1)

    def test_cheap_reject_falls_through_to_flow(self):
        g = uncertain_path([0.9, 0.9, 0.9])
        result = outreach_upper_bound(
            g, [0], {0, 1}, cheap_accept_below=0.5
        )
        assert result.used_flow
        assert result.upper_bound == pytest.approx(0.9)

    def test_cheap_bound_is_valid_upper_bound(self):
        for seed in range(4):
            g = uncertain_gnp(6, 0.3, seed=seed)
            if g.num_arcs > 16 or g.num_arcs == 0:
                continue
            cluster = {0, 1}
            result = outreach_upper_bound(
                g, [0], cluster, cheap_accept_below=0.99
            )
            exact = exact_outreach(g, [0], cluster)
            assert result.upper_bound >= exact - 1e-9


def _certain_exit_path(graph, source, cluster):
    """Whether arcs of ``p = 1`` alone lead from *source* out of *cluster*."""
    seen = {source}
    frontier = [source]
    for u in frontier:
        for v, p in graph.successors(u).items():
            if p < 1.0 or v in seen:
                continue
            if v not in cluster:
                return True
            seen.add(v)
            frontier.append(v)
    return False


class TestOutreachWitness:
    """The flow witness only ever certifies what Algorithm 1 rejects."""

    ETAS = (0.1, 0.3, 0.5, 0.7, 0.9)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.sampled_from(["gnp", "nethept"]),
        st.integers(0, 10_000),
        st.integers(0, 4),
    )
    def test_certificate_implies_algorithm_1_rejects(
        self, family, seed, certain_arcs
    ):
        if family == "gnp":
            graph = uncertain_gnp(20, 0.15, (0.1, 0.95), seed=seed)
        else:
            graph = nethept_like(n=24, seed=seed)
        # A few p = 1 arcs, so certain exit paths occur.
        rng = random.Random(seed)
        arcs = sorted(graph.arcs())
        for u, v, _ in rng.sample(arcs, min(certain_arcs, len(arcs))):
            graph.add_arc(u, v, 1.0)
        tree, _ = build_rqtree(graph, seed=seed)
        for cluster in tree.clusters:
            members = cluster.members
            boundary_free = general_outreach_upper_bound(graph, members) == 0.0
            for source in sorted(members):
                upper = outreach_upper_bound(graph, [source], members).upper_bound
                certain = _certain_exit_path(graph, source, members)
                for eta in self.ETAS:
                    certified = outreach_witness(graph, source, members, eta)
                    if boundary_free:
                        assert certified is None
                    if certain:
                        assert certified is not None
                    if certified is None:
                        continue
                    # Algorithm 1 rejects: its bound reaches the certificate.
                    assert eta <= certified <= upper

    def test_certain_exit_path_certifies_one(self):
        # 0 -(1)- 1 -(1)- 2 -(0.5)- 3: {0, 1} leaves through p = 1 arcs.
        graph = uncertain_path([1.0, 1.0, 0.5])
        assert outreach_witness(graph, 0, {0, 1}, 0.99) == 1.0
        assert outreach_upper_bound(graph, [0], {0, 1}).upper_bound == 1.0
        # {0, 1, 2} leaves only through the p = 0.5 arc.
        assert outreach_witness(graph, 0, {0, 1, 2}, 0.3) == pytest.approx(0.5)
        assert outreach_witness(graph, 0, {0, 1, 2}, 0.7) is None

    def test_source_outside_cluster_rejected(self, fig1_graph):
        with pytest.raises(ValueError):
            outreach_witness(fig1_graph, 0, {1, 2}, 0.5)

    def test_boundary_free_cluster_returns_none(self, fig1_graph):
        everything = set(range(fig1_graph.num_nodes))
        assert outreach_witness(fig1_graph, 0, everything, 0.1) is None

    def test_parallel_paths_add_up(self):
        # Two arc-disjoint exits of p = 0.5 each: f = 2 log 2, so the
        # witness certifies 1 - 0.25 = 0.75 (= U_out) once both are pushed.
        graph = UncertainGraph(4)
        graph.add_arc(0, 1, 0.5)
        graph.add_arc(0, 2, 0.5)
        graph.add_arc(1, 3, 1.0)
        graph.add_arc(2, 3, 1.0)
        cluster = {0, 1, 2}
        assert outreach_witness(graph, 0, cluster, 0.4) == pytest.approx(0.5)
        assert outreach_witness(graph, 0, cluster, 0.7) == pytest.approx(0.75)
        assert outreach_witness(graph, 0, cluster, 0.76) is None
        assert outreach_upper_bound(graph, [0], cluster).upper_bound == (
            pytest.approx(0.75)
        )


class TestCombination:
    def test_empty_product(self):
        assert combine_upper_bounds([]) == 0.0

    def test_single_value_passthrough(self):
        assert combine_upper_bounds([0.3]) == pytest.approx(0.3)

    def test_noisy_or_composition(self):
        assert combine_upper_bounds([0.5, 0.5]) == pytest.approx(0.75)

    def test_saturation_at_one(self):
        assert combine_upper_bounds([1.0, 0.2]) == pytest.approx(1.0)

    def test_order_invariance(self):
        values = [0.1, 0.7, 0.3]
        assert combine_upper_bounds(values) == pytest.approx(
            combine_upper_bounds(reversed(values))
        )
