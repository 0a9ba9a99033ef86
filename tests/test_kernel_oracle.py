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
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro import UncertainGraph
from repro.accel import sample_reach_batch
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
    assert np.array_equal(whole.world_sizes, everything.world_sizes)


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
