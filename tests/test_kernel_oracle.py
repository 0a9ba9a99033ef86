"""Kernel-vs-oracle tests: the batched sampling kernel against exact
enumeration.

The kernel (:mod:`repro.accel.mc_kernel`) is the only world sampler, so
its statistical correctness is checked directly against the exact
oracle of :mod:`repro.graph.exact` — on the paper's example graphs, on
the candidate-local restriction (``allowed``, which remaps nodes to
local ids), with hop budgets and multiple sources — and through every
public entry point that samples.  Same-seed runs must be
byte-identical.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro import UncertainGraph
from repro.accel import ReachPlan, csr_snapshot, mc_kernel, sample_reach_batch
from repro.core.verification import verify_sampling
from repro.graph.exact import exact_hop_reliability, exact_reliability
from repro.graph.generators import uncertain_gnp, uncertain_path
from repro.graph.sampling import ReachabilityFrequencyEstimator
from repro.reliability.montecarlo import mc_reliability, mc_sampling_search

#: Worlds for exact-oracle agreement on tiny (<= 10 node) graphs.
K_EXACT = 20_000


def binomial_bound(p: float, k: int, sigmas: float = 5.0) -> float:
    """A ``sigmas``-sigma band around a frequency estimated from k coins."""
    return sigmas * math.sqrt(max(p * (1.0 - p), 1e-4) / k) + 2.0 / k


# ----------------------------------------------------------------------
# Same-seed determinism
# ----------------------------------------------------------------------
def test_same_seed_same_frequencies(fig1_graph):
    runs = [
        ReachabilityFrequencyEstimator(fig1_graph, [0], seed=123)
        .run(400).frequencies()
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert runs[0] != ReachabilityFrequencyEstimator(
        fig1_graph, [0], seed=124
    ).run(400).frequencies()


def test_backend_attribute_reads_numpy(fig1_graph):
    estimator = ReachabilityFrequencyEstimator(fig1_graph, [0], seed=0)
    assert estimator.backend == "numpy"


# ----------------------------------------------------------------------
# Exact-oracle agreement on <= 10-node graphs (K = 20000)
# ----------------------------------------------------------------------
def test_exact_oracle_agreement_figure1(fig1_graph):
    freqs = ReachabilityFrequencyEstimator(
        fig1_graph, [0], seed=7
    ).run(K_EXACT).frequencies()
    for target in range(fig1_graph.num_nodes):
        exact = exact_reliability(fig1_graph, [0], target)
        estimate = freqs.get(target, 0.0)
        assert abs(estimate - exact) < binomial_bound(exact, K_EXACT), (
            target, estimate, exact
        )


def test_exact_oracle_agreement_path():
    graph = uncertain_path([0.9, 0.8, 0.7, 0.6])
    freqs = ReachabilityFrequencyEstimator(
        graph, [0], seed=21
    ).run(K_EXACT).frequencies()
    for target in range(graph.num_nodes):
        exact = exact_reliability(graph, [0], target)
        assert abs(freqs.get(target, 0.0) - exact) < binomial_bound(
            exact, K_EXACT
        )


def test_exact_oracle_agreement_multi_source(fig1_graph):
    freqs = ReachabilityFrequencyEstimator(
        fig1_graph, [0, 2], seed=33
    ).run(K_EXACT).frequencies()
    for target in range(fig1_graph.num_nodes):
        exact = exact_reliability(fig1_graph, [0, 2], target)
        assert abs(freqs.get(target, 0.0) - exact) < binomial_bound(
            exact, K_EXACT
        )


def test_exact_oracle_agreement_max_hops(fig1_graph):
    freqs = ReachabilityFrequencyEstimator(
        fig1_graph, [0], seed=5, max_hops=2
    ).run(K_EXACT).frequencies()
    for target in range(fig1_graph.num_nodes):
        exact = exact_hop_reliability(fig1_graph, [0], target, 2)
        assert abs(freqs.get(target, 0.0) - exact) < binomial_bound(
            exact, K_EXACT
        ), (target, freqs.get(target, 0.0), exact)


def test_exact_oracle_agreement_allowed(fig1_graph, fig1_names):
    # Restrict to a candidate set and compare against the exact
    # reliability of the induced subgraph.
    removed = fig1_names["v"]
    allowed = set(range(fig1_graph.num_nodes)) - {removed}
    induced = fig1_graph.copy()
    for v, _ in list(induced.successors(removed).items()):
        induced.remove_arc(removed, v)
    for u, _ in list(induced.predecessors(removed).items()):
        induced.remove_arc(u, removed)
    freqs = ReachabilityFrequencyEstimator(
        fig1_graph, [0], seed=13, allowed=allowed
    ).run(K_EXACT).frequencies()
    assert freqs.get(removed, 0.0) == 0.0
    for target in sorted(allowed):
        exact = exact_reliability(induced, [0], target)
        assert abs(freqs.get(target, 0.0) - exact) < binomial_bound(
            exact, K_EXACT
        )


# ----------------------------------------------------------------------
# The allowed restriction (local-id remapping) against the oracle
# ----------------------------------------------------------------------
PROBS = st.floats(min_value=0.05, max_value=1.0, allow_nan=False)
K_PROPERTY = 4000


@st.composite
def restricted_queries(draw):
    """A small graph, an allowed set (an unordered id list, repeats
    allowed), sources in and out of it, and an optional hop budget."""
    n = draw(st.integers(min_value=2, max_value=8))
    arcs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), PROBS),
            max_size=14,
        )
    )
    graph = UncertainGraph(n)
    for u, v, p in arcs:
        if u != v and not graph.has_arc(u, v):
            graph.add_arc(u, v, p)
    # Extra ids beyond n are nodes with no arcs at all.
    extra = draw(st.integers(min_value=0, max_value=2))
    for _ in range(extra):
        graph.add_node()
    nodes = list(range(graph.num_nodes))
    allowed = draw(st.lists(st.sampled_from(nodes), min_size=1))
    # One source inside the allowed set, up to two anywhere.
    sources = [draw(st.sampled_from(allowed))] + draw(
        st.lists(st.sampled_from(nodes), max_size=2)
    )
    max_hops = draw(st.one_of(st.none(), st.integers(0, 3)))
    seed = draw(st.integers(0, 2**31 - 1))
    return graph, allowed, sources, max_hops, seed


def _outside_tail_between_allowed():
    """Arc 1 -> 3 has its tail outside {0, 2, 3} but between allowed
    ids, where a remapping slip would read it as 2 -> 3."""
    graph = UncertainGraph(4)
    graph.add_arc(0, 2, 1.0)
    graph.add_arc(1, 3, 1.0)
    return graph, [3, 0, 2], [0], None, 1


@settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(restricted_queries())
@example(_outside_tail_between_allowed())
def test_allowed_restriction_matches_induced_oracle(query):
    graph, allowed, sources, max_hops, seed = query
    batch = sample_reach_batch(
        graph, sources, K_PROPERTY, np.random.default_rng(seed),
        allowed=allowed, max_hops=max_hops,
    )
    # Rows are the allowed nodes, in ascending global id.
    assert batch.nodes.tolist() == sorted(set(allowed))
    induced, relabel = graph.subgraph(set(allowed)).materialize()
    inside = sorted(relabel[s] for s in sources if s in allowed)
    for node, count in zip(batch.nodes.tolist(), batch.counts.tolist()):
        estimate = count / K_PROPERTY
        if not inside:
            assert count == 0
            continue
        if max_hops is None:
            exact = exact_reliability(induced, inside, relabel[node])
        else:
            exact = exact_hop_reliability(
                induced, inside, relabel[node], max_hops
            )
        assert abs(estimate - exact) < binomial_bound(exact, K_PROPERTY), (
            node, estimate, exact
        )


def test_all_allowed_matches_whole_graph():
    # allowed covering every node is the whole-graph case: same local
    # ids, same arcs, same coins — bit-identical counts.
    graph = uncertain_gnp(250, 3.0 / 250, seed=1)
    whole = sample_reach_batch(graph, [0], 4000, np.random.default_rng(77))
    everything = sample_reach_batch(
        graph, [0], 4000, np.random.default_rng(77),
        allowed=set(range(graph.num_nodes)),
    )
    assert np.array_equal(whole.counts, everything.counts)
    # World by world too: one chunk's reached bits are identical.
    csr = csr_snapshot(graph)
    chunks = [
        mc_kernel._simulate_chunk(
            plan, plan.local_ids([0]), 4000,
            np.random.default_rng(77).bit_generator, None, None,
        )[0]
        for plan in (
            ReachPlan(csr), ReachPlan(csr, range(graph.num_nodes))
        )
    ]
    assert np.array_equal(chunks[0], chunks[1])


# ----------------------------------------------------------------------
# Public entry points that sample
# ----------------------------------------------------------------------
def test_mc_sampling_search(fig1_graph, fig1_names):
    result = mc_sampling_search(
        fig1_graph, fig1_names["s"], 0.5, num_samples=4000, seed=3,
    )
    # Example 1: RS({s}, 0.5) = {s, u, w}; R(s,u)=0.65 and R(s,w)=0.6
    # sit comfortably above the threshold, t and v well below.
    assert fig1_names["u"] in result.nodes
    assert fig1_names["w"] in result.nodes
    assert fig1_names["t"] not in result.nodes


def test_mc_reliability(fig1_graph, fig1_names):
    estimate = mc_reliability(
        fig1_graph, fig1_names["s"], fig1_names["u"],
        num_samples=8000, seed=9,
    )
    assert abs(estimate - 0.65) < 0.03  # Example 1: R(s, u) = 0.65


def test_verify_sampling(fig1_graph, fig1_names):
    candidates = {fig1_names["s"], fig1_names["u"], fig1_names["w"]}
    kept = verify_sampling(
        fig1_graph, [fig1_names["s"]], 0.4, candidates,
        num_samples=4000, seed=17,
    )
    # s -> u and s -> w don't route through v or t, so restricting to
    # the candidate set leaves their reliabilities (0.65 / 0.6) intact.
    assert kept == candidates


def test_engine_query_mc(medium_engine):
    result = medium_engine.query(
        [0], 0.3, method="mc", num_samples=300, seed=1
    )
    assert 0 in result.nodes
    assert result.method == "mc"


def test_expected_spread(fig1_graph):
    from repro.influence.spread import expected_spread_mc

    spread = expected_spread_mc(fig1_graph, [0], num_samples=8000, seed=4)
    # sigma({v0}) = 1 + sum_t R(v0, t) over the other five nodes.
    exact = 1.0 + sum(
        exact_reliability(fig1_graph, [0], t)
        for t in range(1, fig1_graph.num_nodes)
    )
    assert abs(spread - exact) < 0.15


# ----------------------------------------------------------------------
# Per-level coins: sparse and dense levels in one run
# ----------------------------------------------------------------------
def _chain_into_core():
    """Source 30 -> 31 -> 32 -> a 4-node complete core {33..36},
    beside 24 arcs among nodes 0..11 the source cannot reach.

    The BFS's first three levels have 1, 1 and 4 active arcs of 42
    (sparse: fresh coins for those rows), the core's levels 12 (dense:
    the full table).  The unreachable arcs come first in plan order and
    carry p = 0.05, so coins drawn against the wrong arcs' rows change
    the chain's reliabilities."""
    graph = UncertainGraph(37)
    for i in range(24):
        graph.add_arc(i % 12, (i % 12 + 1 + i // 12) % 12, 0.05)
    graph.add_arc(30, 31, 0.9)
    graph.add_arc(31, 32, 0.8)
    core = range(33, 37)
    for i, v in enumerate(core):
        graph.add_arc(32, v, 0.3 + 0.1 * i)
    for u in core:
        for v in core:
            if u != v:
                graph.add_arc(u, v, 0.25 + 0.05 * ((u + 2 * v) % 5))
    reachable = graph.subgraph(set(range(30, 37))).materialize()
    return graph, reachable


def test_sparse_and_dense_levels_match_exact_oracle(monkeypatch):
    from repro.accel import mc_kernel

    graph, (reachable, relabel) = _chain_into_core()
    drawn_rows = []
    coins = mc_kernel._coins

    def spy(rng, probs, size):
        drawn_rows.append(probs.size)
        return coins(rng, probs, size)

    monkeypatch.setattr(mc_kernel, "_coins", spy)
    batch = sample_reach_batch(
        graph, [30], K_EXACT, np.random.default_rng(5)
    )
    num_arcs = graph.num_arcs
    # Both branches ran: row subsets (sparse) and the full table (dense).
    assert any(rows * 8 < num_arcs for rows in drawn_rows)
    assert num_arcs in drawn_rows
    for node, count in zip(batch.nodes.tolist(), batch.counts.tolist()):
        if node not in relabel:
            assert count == 0
            continue
        exact = exact_reliability(reachable, [relabel[30]], relabel[node])
        estimate = count / K_EXACT
        assert abs(estimate - exact) < binomial_bound(exact, K_EXACT), (
            node, estimate, exact
        )


@pytest.mark.parametrize("num_worlds", [1, 63, 1000, 4096 + 13])
def test_source_counts_equal_num_worlds(num_worlds):
    # Pad worlds (bits past num_worlds in the last uint64 word) start
    # with the sources' bits set; they must never be counted.
    graph = uncertain_gnp(30, 0.1, seed=4)
    batch = sample_reach_batch(
        graph, [0, 7, 19], num_worlds, np.random.default_rng(3)
    )
    assert batch.counts[[0, 7, 19]].tolist() == [num_worlds] * 3
    assert batch.num_worlds == num_worlds
    assert (batch.counts <= num_worlds).all()


# ----------------------------------------------------------------------
# Recursive stratified sampling: one pass, strata as world segments
# ----------------------------------------------------------------------
def _bridge_graph(fan, unreachable):
    """Bridge 0 -> 1 (p = 0.5, the highest-variance arc) into the
    chain 1 -> 2 -> 3; *fan* more certain-ish out-arcs of the source
    and *unreachable* arcs elsewhere set whether the source's level is
    dense (fan 3, nothing else) or sparse (fan 0, 24 arcs elsewhere)."""
    graph = UncertainGraph(60)
    graph.add_arc(0, 1, 0.5)
    graph.add_arc(1, 2, 0.9)
    graph.add_arc(2, 3, 0.85)
    for i in range(fan):
        graph.add_arc(0, 10 + i, 0.95)
    for i in range(unreachable):
        graph.add_arc(20 + i, 21 + i, 0.95)
    return graph


@pytest.mark.parametrize("fan, unreachable", [(3, 0), (0, 24)])
def test_forced_absent_bridge_reaches_nothing_past_it(fan, unreachable):
    from repro.accel import Strata

    graph = _bridge_graph(fan, unreachable)
    estimator = ReachabilityFrequencyEstimator(graph, [0], seed=8)
    plan = estimator.plan
    bridge = int(np.flatnonzero(
        (plan.nodes[plan.predecessors] == 0) & (plan.nodes[plan.targets] == 1)
    )[0])
    present, absent = 6000, 4000
    estimator.run(present + absent, Strata(
        arcs=[bridge], present=[(True,), (False,)], sizes=[present, absent],
    ))
    counts = estimator.stratum_counts()
    column = {int(node): i for i, node in enumerate(plan.nodes)}
    # Forced absent: nothing past the bridge, however many worlds.
    assert [counts[1, column[v]] for v in (1, 2, 3)] == [0, 0, 0]
    assert counts[1, column[0]] == absent
    # Forced present: the chain beyond it at its conditional reliability.
    assert counts[0, column[1]] == present
    for node, exact in ((2, 0.9), (3, 0.9 * 0.85)):
        estimate = counts[0, column[node]] / present
        assert abs(estimate - exact) < binomial_bound(exact, present)
    assert estimator.counts()[0] == present + absent


@pytest.mark.parametrize("fan, unreachable", [(3, 0), (0, 24)])
def test_rss_matches_exact_with_bridge_pivot(fan, unreachable):
    from repro.estimators import get_estimator
    from repro.estimators.base import EstimateRequest

    graph = _bridge_graph(fan, unreachable)
    candidates = set(range(graph.num_nodes))
    report = get_estimator("rss").estimate(EstimateRequest(
        graph=graph, sources=[0], eta=0.3, candidates=candidates,
        num_samples=K_EXACT, seed=11,
    ))
    assert report.worlds_used == K_EXACT
    assert not report.degraded
    for node in range(graph.num_nodes):
        exact = exact_reliability(graph, [0], node)
        estimate = report.estimates.get(node, 0.0)
        assert abs(estimate - exact) < binomial_bound(exact, K_EXACT), (
            node, estimate, exact
        )
