"""Unit tests for the CSR snapshot and batched MC kernel (repro.accel)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel import CSRGraph, ReachPlan, csr_snapshot, sample_reach_batch
from repro.accel import mc_kernel
from repro.graph.generators import uncertain_gnp
from repro.graph.uncertain import UncertainGraph


# ----------------------------------------------------------------------
# CSR snapshots
# ----------------------------------------------------------------------
def test_csr_roundtrip_matches_adjacency(fig1_graph):
    csr = csr_snapshot(fig1_graph)
    assert csr.num_nodes == fig1_graph.num_nodes
    assert csr.num_arcs == fig1_graph.num_arcs
    for u in range(fig1_graph.num_nodes):
        lo, hi = int(csr.indptr[u]), int(csr.indptr[u + 1])
        forward = dict(
            zip(csr.indices[lo:hi].tolist(), csr.probs[lo:hi].tolist())
        )
        assert forward == fig1_graph.successors(u)
        lo, hi = int(csr.rev_indptr[u]), int(csr.rev_indptr[u + 1])
        reverse = dict(
            zip(
                csr.rev_indices[lo:hi].tolist(),
                csr.rev_probs[lo:hi].tolist(),
            )
        )
        assert reverse == fig1_graph.predecessors(u)
    assert csr.out_degrees().sum() == fig1_graph.num_arcs


def test_csr_arrays_are_readonly(fig1_graph):
    csr = csr_snapshot(fig1_graph)
    for array in (csr.indptr, csr.indices, csr.probs, csr.probs_f32,
                  csr.rev_indptr, csr.rev_indices, csr.rev_probs):
        with pytest.raises(ValueError):
            array[0] = 0


def test_csr_snapshot_cached_until_mutation():
    g = uncertain_gnp(20, 0.2, seed=3)
    first = csr_snapshot(g)
    assert csr_snapshot(g) is first  # cache hit while version unchanged
    version = g.version
    g.add_arc(0, 19, 0.5)
    assert g.version > version
    rebuilt = csr_snapshot(g)
    assert rebuilt is not first
    assert rebuilt.num_arcs == first.num_arcs + 1
    assert csr_snapshot(g) is rebuilt


def test_csr_snapshot_invalidated_by_every_mutation_kind():
    g = UncertainGraph(2)
    g.add_arc(0, 1, 0.5)
    for mutate in (
        lambda: g.add_node(),
        lambda: g.add_arc(1, 0, 0.25),
        lambda: g.remove_arc(1, 0),
    ):
        before = csr_snapshot(g)
        mutate()
        assert csr_snapshot(g) is not before


def test_csr_rejects_non_graph():
    with pytest.raises(TypeError, match="materialize"):
        CSRGraph({0: {1: 0.5}})  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Batched kernel mechanics
# ----------------------------------------------------------------------
def test_batch_rejects_nonpositive_worlds(fig1_graph):
    with pytest.raises(ValueError, match="num_worlds"):
        sample_reach_batch(
            fig1_graph, [0], 0, np.random.default_rng(0)
        )


def test_batch_empty_sources(fig1_graph):
    batch = sample_reach_batch(
        fig1_graph, [], 50, np.random.default_rng(0)
    )
    assert batch.counts.sum() == 0
    assert batch.num_worlds == 50


def test_batch_sources_always_reached(fig1_graph):
    batch = sample_reach_batch(
        fig1_graph, [0, 3], 64, np.random.default_rng(1)
    )
    assert batch.counts[0] == 64
    assert batch.counts[3] == 64


def test_batch_sources_outside_allowed_are_dropped(fig1_graph):
    batch = sample_reach_batch(
        fig1_graph, [0], 40, np.random.default_rng(2), allowed={1, 2}
    )
    assert batch.counts.sum() == 0


def test_batch_max_hops_zero_is_sources_only(fig1_graph):
    batch = sample_reach_batch(
        fig1_graph, [0], 40, np.random.default_rng(3), max_hops=0
    )
    assert batch.counts[0] == 40
    assert batch.counts.sum() == 40


def test_batch_deterministic_per_seed(fig1_graph):
    a = sample_reach_batch(fig1_graph, [0], 500, np.random.default_rng(11))
    b = sample_reach_batch(fig1_graph, [0], 500, np.random.default_rng(11))
    assert (a.counts == b.counts).all()
    c = sample_reach_batch(fig1_graph, [0], 500, np.random.default_rng(12))
    assert not (a.counts == c.counts).all()
    # Same seed, same worlds: the reached bits agree world by world.
    plan = ReachPlan(csr_snapshot(fig1_graph))
    worlds = [
        mc_kernel._simulate_chunk(
            plan, plan.local_ids([0]), 500,
            np.random.default_rng(11).bit_generator, None, None,
        )[0]
        for _ in range(2)
    ]
    assert np.array_equal(worlds[0], worlds[1])


def test_batch_chunked_run_covers_all_worlds(fig1_graph, monkeypatch):
    # Force a tiny chunk so the accumulation loop runs many times.
    monkeypatch.setattr(mc_kernel, "_chunk_size", lambda plan, w: 7)
    batch = sample_reach_batch(
        fig1_graph, [0], 100, np.random.default_rng(5)
    )
    assert batch.num_worlds == 100
    assert batch.counts[0] == 100
    # frequencies remain sane estimates despite chunking
    assert 0.4 < batch.counts[3] / 100 < 0.9


def test_batch_accepts_prebuilt_csr(fig1_graph):
    csr = csr_snapshot(fig1_graph)
    batch = sample_reach_batch(csr, [0], 64, np.random.default_rng(7))
    assert batch.counts[0] == 64


def test_batch_isolated_node_graph():
    g = UncertainGraph(3)  # no arcs at all
    batch = sample_reach_batch(g, [1], 16, np.random.default_rng(0))
    assert batch.counts.tolist() == [0, 16, 0]


def _random_graph(n: int, m: int, seed: int) -> UncertainGraph:
    rng = np.random.default_rng(seed)
    graph = UncertainGraph(n)
    for u, v, p in zip(
        rng.integers(0, n, m), rng.integers(0, n, m), rng.uniform(0.1, 0.9, m)
    ):
        if u != v and not graph.has_arc(int(u), int(v)):
            graph.add_arc(int(u), int(v), float(p))
    return graph


def test_batch_memory_follows_candidate_set():
    """16 allowed nodes of a 20,000-node graph: the kernel's state and
    coins are sized by the candidate subgraph, not by the graph."""
    import tracemalloc

    graph = _random_graph(20_000, 60_000, seed=3)
    csr = csr_snapshot(graph)
    allowed = set(range(0, 20_000, 1250))
    # Warm up first so one-time imports stay out of the measurement.
    sample_reach_batch(csr, [0], 8, np.random.default_rng(0), allowed=allowed)
    tracemalloc.start()
    try:
        batch = sample_reach_batch(
            csr, [0], 1000, np.random.default_rng(1), allowed=allowed
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert batch.counts.shape == (16,)
    assert batch.counts[0] == 1000
    whole_graph_coins = csr.num_arcs * 1000 * 4  # uint32 draws
    assert peak < whole_graph_coins / 500, (peak, whole_graph_coins)


def test_plan_local_ids_follow_ascending_global_ids():
    graph = uncertain_gnp(40, 0.2, seed=12)
    csr = csr_snapshot(graph)
    allowed = [31, 4, 17, 9, 22]
    plan = ReachPlan(csr, allowed)
    assert plan.nodes.tolist() == sorted(allowed)
    # Iteration order of the allowed set never changes the plan.
    other = ReachPlan(csr, reversed(allowed))
    for name in ("nodes", "predecessors", "targets", "probs_f32"):
        assert np.array_equal(getattr(plan, name), getattr(other, name))
    arcs = {
        (int(plan.nodes[u]), int(plan.nodes[v]))
        for u, v in zip(plan.predecessors, plan.targets)
    }
    assert arcs == {
        (u, v) for u, v, _ in graph.arcs() if u in allowed and v in allowed
    }
    assert plan.num_arcs == len(arcs)


# ----------------------------------------------------------------------
# Sampled worlds track graph mutation; same seed, same worlds
# ----------------------------------------------------------------------
def _one_world(graph, sources, rng):
    batch = sample_reach_batch(graph, sources, 1, rng)
    return set(batch.nodes[batch.counts > 0].tolist())


def test_world_sampler_snapshot_tracks_mutation():
    g = UncertainGraph(3)
    g.add_arc(0, 1, 1.0)
    rng = np.random.default_rng(0)
    assert _one_world(g, [0], rng) == {0, 1}
    # Mutating the graph between samples must invalidate the CSR
    # snapshot: the new certain arc shows up in the very next world.
    g.add_arc(1, 2, 1.0)
    assert _one_world(g, [0], rng) == {0, 1, 2}
    g.remove_arc(0, 1)
    assert _one_world(g, [0], rng) == {0}


def test_world_sampler_seeded_sequences_unchanged():
    g = uncertain_gnp(12, 0.3, seed=4)
    a = np.random.default_rng(9)
    b = np.random.default_rng(9)
    for _ in range(5):
        assert _one_world(g, [0], a) == _one_world(g, [0], b)


# ----------------------------------------------------------------------
# Packed coin layout
# ----------------------------------------------------------------------
def test_draw_coins_bits_match_private_draw():
    g = uncertain_gnp(30, 0.2, seed=5)
    csr = csr_snapshot(g)
    plan = ReachPlan(csr)
    packed = mc_kernel.draw_coins(np.random.default_rng(11), plan, 24)
    rng = np.random.default_rng(11)
    raw = (
        rng.random((csr.num_arcs, 24), dtype=np.float32)
        < csr.rev_probs_f32[:, None]
    )
    # The packed bytes match np.packbits of the float32 comparison bit
    # for bit, and the pad columns (zero-filled to uint64 lane width)
    # carry no coins.
    private = np.packbits(raw, axis=1)
    assert packed.shape == (csr.num_arcs, mc_kernel.packed_columns(24))
    assert np.array_equal(packed[:, : private.shape[1]], private)
    assert not packed[:, private.shape[1]:].any()
    assert np.array_equal(packed, mc_kernel.pack_world_bits(raw))


def _float32_coins(rng, probs, size):
    """The reference draw: one float32 uniform per coin, below p."""
    return mc_kernel.pack_world_bits(
        rng.random((probs.size, size), dtype=np.float32) < probs[:, None]
    )


@pytest.mark.parametrize("size", [1, 63, 1013])
def test_draw_coins_odd_count_matches_float32_draw(size):
    plan = ReachPlan(csr_snapshot(uncertain_gnp(30, 0.2, seed=5)))
    assert plan.num_arcs * size % 2 == 1  # the last word's high half is unused
    packed = mc_kernel.draw_coins(np.random.default_rng(3), plan, size)
    expected = _float32_coins(np.random.default_rng(3), plan.probs_f32, size)
    assert np.array_equal(packed, expected)


@pytest.mark.parametrize("bit_generator", [
    np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64,
])
def test_draw_coins_even_call_sequence_matches_float32_draw(bit_generator):
    plan = ReachPlan(csr_snapshot(uncertain_gnp(30, 0.2, seed=5)))
    ours = np.random.Generator(bit_generator(8))
    reference = np.random.Generator(bit_generator(8))
    for size in (24, 64, 2, 100, 1000):
        assert np.array_equal(
            mc_kernel.draw_coins(ours, plan, size),
            _float32_coins(reference, plan.probs_f32, size),
        )


def test_coin_thresholds_at_probability_extremes():
    graph = UncertainGraph(4)
    graph.add_arc(0, 1, 1.0)
    graph.add_arc(0, 2, 1e-9)
    graph.add_arc(0, 3, 1e-300)  # 0 in float32: no world has it
    plan = ReachPlan(csr_snapshot(graph))
    assert plan.num_arcs == 2
    assert plan.coin_max.tolist() == [2**32 - 1, 255]
    size = 4096
    packed = mc_kernel.draw_coins(np.random.default_rng(1), plan, size)
    expected = _float32_coins(np.random.default_rng(1), plan.probs_f32, size)
    assert np.array_equal(packed, expected)
    assert np.unpackbits(packed[0]).all()  # p = 1.0: heads in every world
    batch = sample_reach_batch(graph, [0], size, np.random.default_rng(2))
    assert batch.counts[1] == size
    assert batch.counts[3] == 0


def test_kernel_refuses_32_bit_generator(fig1_graph):
    rng = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(TypeError, match="64-bit"):
        sample_reach_batch(fig1_graph, [0], 64, rng)
    with pytest.raises(TypeError, match="64-bit"):
        mc_kernel.draw_coins(rng, ReachPlan(csr_snapshot(fig1_graph)), 64)


# ----------------------------------------------------------------------
# Thread-safety of the version-keyed CSR snapshot cache
# ----------------------------------------------------------------------
def test_csr_snapshot_threaded_hammer_with_mutations():
    import threading

    g = uncertain_gnp(120, 0.05, seed=9)
    # version -> arc count, recorded by the mutator before and after
    # every mutation; any snapshot must match the arc count of the
    # version it claims to be.
    recorded = {g.version: g.num_arcs}
    record_lock = threading.Lock()
    stop = threading.Event()
    failures = []

    def mutator():
        node = 0
        while not stop.is_set():
            g.add_arc(node % 120, (node * 7 + 1) % 120, 0.5)
            with record_lock:
                recorded[g.version] = g.num_arcs
            node += 1

    def reader():
        try:
            for _ in range(300):
                snap = csr_snapshot(g)
                with record_lock:
                    expected = recorded.get(snap.version)
                if expected is not None and snap.num_arcs != expected:
                    failures.append(
                        f"torn snapshot: version {snap.version} has "
                        f"{snap.num_arcs} arcs, expected {expected}"
                    )
                assert snap.indptr[-1] == snap.num_arcs
                assert snap.rev_indptr[-1] == snap.num_arcs
        except Exception as error:  # noqa: BLE001 - surfaced below
            failures.append(repr(error))

    readers = [threading.Thread(target=reader) for _ in range(8)]
    mut = threading.Thread(target=mutator, daemon=True)
    mut.start()
    for thread in readers:
        thread.start()
    for thread in readers:
        thread.join()
    stop.set()
    mut.join(timeout=10)
    assert not failures, failures[:3]


def test_csr_snapshot_cache_reused_until_mutation():
    g = uncertain_gnp(25, 0.2, seed=10)
    first = csr_snapshot(g)
    assert csr_snapshot(g) is first
    g.add_arc(0, 24, 0.9)
    second = csr_snapshot(g)
    assert second is not first
    assert second.version == g.version


def test_csr_snapshot_cache_key_includes_epoch():
    # A live-update epoch publish can advance the epoch without a
    # structural mutation; the cache is keyed on the (version, epoch)
    # pair, so the snapshot must still refresh.
    g = uncertain_gnp(25, 0.2, seed=10)
    first = csr_snapshot(g)
    g.set_epoch(g.epoch + 1)
    second = csr_snapshot(g)
    assert second is not first
    assert (second.version, second.epoch) == (g.version, g.epoch)
    assert csr_snapshot(g) is second


def test_csr_snapshot_hammer_under_epoch_advancement():
    """Readers racing a mutator that also publishes epochs.

    The live update plane's apply loop is exactly this shape: arcs
    change, then ``set_epoch`` stamps the generation.  Any snapshot a
    reader obtains must be internally consistent and carry a
    ``(version, epoch)`` pair the mutator actually produced.
    """
    import threading

    g = uncertain_gnp(120, 0.05, seed=9)
    recorded = {(g.version, g.epoch): g.num_arcs}
    record_lock = threading.Lock()
    stop = threading.Event()
    failures = []

    def mutator():
        node = 0
        epoch = g.epoch
        while not stop.is_set():
            g.add_arc(node % 120, (node * 7 + 1) % 120, 0.5)
            if node % 5 == 0:
                epoch += 1
                g.set_epoch(epoch)
            with record_lock:
                recorded[(g.version, g.epoch)] = g.num_arcs
            node += 1

    def reader():
        try:
            for _ in range(300):
                snap = csr_snapshot(g)
                with record_lock:
                    expected = recorded.get((snap.version, snap.epoch))
                if expected is not None and snap.num_arcs != expected:
                    failures.append(
                        f"torn snapshot: generation "
                        f"({snap.version}, {snap.epoch}) has "
                        f"{snap.num_arcs} arcs, expected {expected}"
                    )
                assert snap.indptr[-1] == snap.num_arcs
                assert snap.rev_indptr[-1] == snap.num_arcs
        except Exception as error:  # noqa: BLE001 - surfaced below
            failures.append(repr(error))

    readers = [threading.Thread(target=reader) for _ in range(8)]
    mut = threading.Thread(target=mutator, daemon=True)
    mut.start()
    for thread in readers:
        thread.start()
    for thread in readers:
        thread.join()
    stop.set()
    mut.join(timeout=10)
    assert not failures, failures[:3]


# ----------------------------------------------------------------------
# Coins drawn: only what the BFS reaches
# ----------------------------------------------------------------------
@pytest.fixture
def fresh_registry():
    from repro.service.metrics import MetricsRegistry, set_registry

    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def _coins_drawn(registry, graph, sources, num_worlds):
    before = registry.counter("accel.kernel_coins").value
    sample_reach_batch(graph, sources, num_worlds, np.random.default_rng(4))
    return registry.counter("accel.kernel_coins").value - before


def test_source_without_out_arcs_draws_no_coins(fresh_registry):
    graph = uncertain_gnp(40, 0.2, seed=6)
    lonely = graph.add_node()
    assert _coins_drawn(fresh_registry, graph, [lonely], 1000) == 0


def test_all_dense_levels_draw_one_table_per_chunk(fresh_registry):
    # Every level of a path has 1 active arc of 2 (dense): each chunk
    # draws the full table once, num_arcs x num_worlds over the run,
    # which is what drawing every coin up front costs.
    graph = UncertainGraph(3)
    graph.add_arc(0, 1, 0.7)
    graph.add_arc(1, 2, 0.6)
    num_worlds = 2 * mc_kernel._MAX_CHUNK + 100
    assert _coins_drawn(fresh_registry, graph, [0], num_worlds) == (
        graph.num_arcs * num_worlds
    )


def test_chain_among_unreachable_arcs_draws_its_own_rows(fresh_registry):
    # Three sparse levels of one certain arc each; the 100 arcs the
    # source cannot reach never get a coin.
    graph = UncertainGraph(104)
    graph.add_arc(0, 1, 1.0)
    graph.add_arc(1, 2, 1.0)
    graph.add_arc(2, 3, 1.0)
    for i in range(100):
        graph.add_arc(4 + i % 50, 4 + (i % 50 + 1 + i // 50) % 100, 0.5)
    assert graph.num_arcs == 103
    drawn = _coins_drawn(fresh_registry, graph, [0], 1000)
    assert drawn == 3 * 1000
    assert drawn * 30 < graph.num_arcs * 1000
