"""Consistency of an index under interleaved arc updates.

The paper's correctness guarantee (Theorem 3 / Section 5.1) holds for
*any* hierarchical partition of the node set, so an engine that keeps
the tree it was built with while its graph changes must answer
exact-precision queries identically to a from-scratch index built over
the same final graph.  These tests mutate a graph through a scripted
interleaving of inserts, deletes and probability changes (applied with
``RQTreeEngine.apply``, queries in between) and compare answers against
``RQTreeEngine.build`` of the final graph.  The same stream, applied
through the live engine and a shard runtime, must leave every cluster
of the start-up tree as it was.
"""

from __future__ import annotations

import random

import pytest

from repro import RQTreeEngine
from repro.graph.generators import uncertain_gnp
from repro.live import LiveRQTreeEngine, apply_to_graph, shard_slices
from repro.live.updates import normalize_updates
from repro.shard.plan import build_shard_plan
from repro.shard.runtime import ShardRuntime, build_shard_payload

ETAS = (0.2, 0.4, 0.6)
PROBE_SOURCES = (0, 7, 23, 55)
BATCH = 10


def _stream(graph, rng: random.Random, steps: int):
    """*steps* interleaved mutations chosen by *rng*, as update ops.

    The choices are made against a scratch copy of *graph*.  An insert
    onto an existing arc noisy-ors, as ``UncertainGraph.add_arc`` does,
    and is recorded as a ``set`` of the combined probability.
    """
    scratch = graph.copy()
    n = scratch.num_nodes
    ops = []
    for _ in range(steps):
        op = rng.random()
        arcs = list(scratch.arcs())
        if op < 0.4 or not arcs:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                scratch.add_arc(u, v, rng.uniform(0.1, 0.9))
                ops.append(("set", u, v, scratch.probability(u, v)))
        elif op < 0.7:
            u, v, _ = arcs[rng.randrange(len(arcs))]
            scratch.remove_arc(u, v)
            ops.append(("delete", u, v))
        else:
            u, v, _ = arcs[rng.randrange(len(arcs))]
            p = rng.uniform(0.1, 0.9)
            scratch.remove_arc(u, v)
            scratch.add_arc(u, v, p)
            ops.append(("set", u, v, p))
    return ops


def _batches(ops):
    return [ops[i:i + BATCH] for i in range(0, len(ops), BATCH)]


@pytest.fixture(scope="module")
def graph():
    return uncertain_gnp(80, 4.0 / 80, seed=13)


@pytest.fixture(scope="module")
def stream(graph):
    return _stream(graph, random.Random(99), 120)


@pytest.fixture(scope="module")
def mutated(graph, stream):
    engine = RQTreeEngine.build(graph.copy(), seed=0)
    for batch in _batches(stream):
        # Queries between batches fill the bounds cache, so later
        # answers read entries that outlived updates.
        _answers(engine, "lb")
        engine.apply(batch)
    return engine


def _answers(engine, method: str):
    return {
        (s, eta): frozenset(engine.query(s, eta, method=method).nodes)
        for s in PROBE_SOURCES
        for eta in ETAS
    }


def test_lb_answers_match_from_scratch_rebuild(mutated):
    fresh = RQTreeEngine.build(mutated.graph, seed=0)
    assert _answers(fresh, "lb") == _answers(mutated, "lb")


def test_lb_plus_answers_match_from_scratch_rebuild(mutated):
    fresh = RQTreeEngine.build(mutated.graph, seed=0)
    assert _answers(fresh, "lb+") == _answers(mutated, "lb+")


def test_answers_independent_of_tree_seed(mutated):
    """A completely different partition over the same final graph gives
    the same exact-precision answers (candidate sets may differ)."""
    fresh = RQTreeEngine.build(mutated.graph, seed=1234)
    assert _answers(fresh, "lb") == _answers(mutated, "lb")


def test_incremental_tree_stays_valid(mutated):
    mutated.tree.validate()
    assert mutated.tree.num_graph_nodes == mutated.graph.num_nodes


def _member_sets(tree):
    return [cluster.members for cluster in tree.clusters]


@pytest.mark.parametrize("where", ["live-engine", "shard-runtime"])
def test_update_stream_leaves_every_cluster_unchanged(graph, stream, where):
    """Every epoch is served by the tree built at start-up."""
    final = graph.copy()
    applied = apply_to_graph(final, normalize_updates(stream))
    assert applied == len(stream)
    if where == "live-engine":
        live = LiveRQTreeEngine.build(graph.copy(), seed=0)
        before = _member_sets(live.tree)
        for epoch, batch in enumerate(_batches(stream), start=1):
            assert live.apply(batch) == epoch
            live.query(PROBE_SOURCES[0], 0.4, method="lb")
        after = _member_sets(live.tree)
        assert sorted(live.graph.arcs()) == sorted(final.arcs())
        live.close()
    else:
        plan = build_shard_plan(graph, 1, seed=0)
        runtime = ShardRuntime(build_shard_payload(graph, plan, 0, seed=0))
        before = _member_sets(runtime.engine.tree)
        total = 0
        for epoch, batch in enumerate(_batches(stream), start=1):
            slices, frontier = shard_slices(normalize_updates(batch), plan)
            assert not frontier
            ack = runtime.apply_updates({"ops": slices[0], "epoch": epoch})
            total += ack["applied"]
        after = _member_sets(runtime.engine.tree)
        assert total == applied
        assert runtime.engine.graph.num_arcs == final.num_arcs
    assert after == before
