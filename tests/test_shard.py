"""Tests for the sharded serving tier (repro.shard).

The load-bearing guarantee is *shard-count invariance*: on a seeded
workload, a sharded engine — whatever ``K``, execution mode, injected
faults, or expired budgets — must answer exactly like the plain
single-process engine for ``method="lb"``, bit-identically across shard
counts for ``method="mc"`` at ``mc_refine_floor=0``, and *soundly*
(never-wrong subsets) whenever it reports a degraded answer.

``lb`` and ``exact`` are answered by the gateway's whole-graph pass and
submit no sub-query, so the checks that probe the shard fabric (faults,
dead workers, the scatter race, metrics) use ``lb+``: it scatters, it
is deterministic and sound, and its answer always contains the
whole-graph ``lb`` answer.  Each such check has an ``lb`` counterpart:
under the same fault, ``lb`` stays exact and is not degraded.  The rest
covers the tier's own machinery: the partition plan, the picklable
worker payloads, the process transport, and the service integration.
"""

from __future__ import annotations

import pickle

import pytest

from repro import RQTreeEngine
from repro.errors import PartitionError, ShardUnavailableError
from repro.core.engine import height_ratio
from repro.graph.exact import exact_reliability_search
from repro.graph.generators import uncertain_gnp, uncertain_path
from repro.graph.paths import (
    hop_bounded_path_probabilities,
    most_likely_path_probabilities,
)
from repro.graph.uncertain import UncertainGraph
from repro.resilience import CONFIRMED, UNVERIFIED, FaultPlan, QueryBudget
from repro.seeding import derive_seed
from repro.service.metrics import MetricsRegistry, set_registry
from repro.shard import (
    InlineShardClient,
    ShardedRQTreeEngine,
    ShardRuntime,
    build_shard_payload,
    build_shard_plan,
)

ETAS = (0.15, 0.35, 0.6)
SOURCES = (0, 57, 123, 222, 299)


@pytest.fixture()
def fresh_registry():
    """Isolate the process-global metrics registry for one test."""
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


@pytest.fixture(scope="module")
def sharded1(medium_graph):
    with ShardedRQTreeEngine.build(
        medium_graph, shards=1, seed=7, mode="inline"
    ) as engine:
        yield engine


@pytest.fixture(scope="module")
def sharded4(medium_graph):
    with ShardedRQTreeEngine.build(
        medium_graph, shards=4, seed=7, mode="inline"
    ) as engine:
        yield engine


def fingerprint(result):
    """Everything observable about an answer, hashable for comparison."""
    return (
        tuple(sorted(result.nodes)),
        tuple(sorted(result.statuses.items())),
        result.degraded,
        result.worlds_used,
        result.method,
        result.eta,
        tuple(result.sources),
    )


def truncated_pass(graph, sources, eta, max_hops=None):
    """The whole-graph η-truncated most-likely-path answer, with L_R."""
    cutoff = eta * (1.0 - 1e-9)
    if max_hops is None:
        reached = most_likely_path_probabilities(
            graph, sources, min_probability=cutoff
        )
    else:
        reached = hop_bounded_path_probabilities(
            graph, sources, max_hops, min_probability=cutoff
        )
    return {node: p for node, p in reached.items() if p >= cutoff}


# ----------------------------------------------------------------------
# Shard planning
# ----------------------------------------------------------------------
class TestShardPlan:
    def test_partitions_the_node_set(self, medium_graph):
        plan = build_shard_plan(medium_graph, 4, seed=7)
        assert plan.num_shards == 4
        seen = set()
        for shard_id, members in enumerate(plan.shard_nodes):
            assert list(members) == sorted(members)
            assert not seen.intersection(members)
            seen.update(members)
            for node in members:
                assert plan.owner(node) == shard_id
        assert seen == set(range(medium_graph.num_nodes))

    def test_frontier_is_exactly_the_crossing_arcs(self, medium_graph):
        plan = build_shard_plan(medium_graph, 4, seed=7)
        crossing = {
            (u, v, p)
            for u, v, p in medium_graph.arcs()
            if plan.shard_of[u] != plan.shard_of[v]
        }
        assert set(plan.frontier_arcs) == crossing
        # (a disconnected graph can legitimately split with an empty
        # frontier, as nethept_like does here)
        assert 0.0 <= plan.frontier_fraction < 1.0
        assert plan.num_arcs == medium_graph.num_arcs
        dense = uncertain_gnp(60, 0.1, seed=4)
        dense_plan = build_shard_plan(dense, 4, seed=7)
        assert dense_plan.frontier_arcs
        assert 0.0 < dense_plan.frontier_fraction < 1.0

    def test_single_shard_has_no_frontier(self, medium_graph):
        plan = build_shard_plan(medium_graph, 1, seed=7)
        assert plan.shard_nodes == (
            tuple(range(medium_graph.num_nodes)),
        )
        assert plan.frontier_arcs == ()
        assert plan.frontier_fraction == 0.0

    def test_deterministic_for_a_seed(self, medium_graph):
        assert build_shard_plan(medium_graph, 4, seed=7) == build_shard_plan(
            medium_graph, 4, seed=7
        )

    def test_odd_shard_counts(self, medium_graph):
        for k in (3, 5):
            plan = build_shard_plan(medium_graph, k, seed=7)
            assert plan.num_shards == k
            assert sum(len(p) for p in plan.shard_nodes) == (
                medium_graph.num_nodes
            )

    def test_rejects_bad_shard_counts(self, medium_graph):
        with pytest.raises(PartitionError):
            build_shard_plan(medium_graph, 0)
        with pytest.raises(PartitionError):
            build_shard_plan(medium_graph, medium_graph.num_nodes + 1)
        with pytest.raises(PartitionError):
            build_shard_plan(UncertainGraph(0), 1)

    def test_describe_mentions_sizes_and_frontier(self, medium_graph):
        text = build_shard_plan(medium_graph, 2, seed=7).describe()
        assert "2 shard(s)" in text
        assert "frontier" in text


# ----------------------------------------------------------------------
# Worker payloads and the shard runtime
# ----------------------------------------------------------------------
class TestShardRuntime:
    def test_payload_is_picklable(self, medium_graph):
        plan = build_shard_plan(medium_graph, 2, seed=7)
        payload = build_shard_payload(medium_graph, plan, 0, seed=7)
        clone = pickle.loads(pickle.dumps(payload))
        assert clone["shard_id"] == 0
        assert clone["num_nodes"] == len(plan.shard_nodes[0])
        assert clone["global_ids"] == list(plan.shard_nodes[0])

    def test_runtime_answers_in_global_ids(self, medium_graph):
        plan = build_shard_plan(medium_graph, 2, seed=7)
        shard_id = plan.owner(0)
        runtime = ShardRuntime(
            build_shard_payload(medium_graph, plan, shard_id, seed=7)
        )
        response = runtime.handle({"sources": [0], "eta": 0.3})
        members = set(plan.shard_nodes[shard_id])
        assert set(response["kept"]) <= members
        assert set(response["candidates"]) <= members
        # A shard-local certificate is globally sound: every kept node
        # must also be in the whole-graph answer.
        whole = RQTreeEngine.build(medium_graph, seed=7)
        assert set(response["kept"]) <= set(
            whole.query(0, eta=0.3, method="lb").nodes
        )


# ----------------------------------------------------------------------
# Parity: sharded vs single-engine, across shard counts
# ----------------------------------------------------------------------
class TestInlineParity:
    def test_lb_matches_plain_engine_for_any_shard_count(
        self, medium_engine, sharded1, sharded4
    ):
        for source in SOURCES:
            for eta in ETAS:
                expect = set(
                    medium_engine.query(source, eta=eta, method="lb").nodes
                )
                for sharded in (sharded1, sharded4):
                    result = sharded.query(source, eta=eta, method="lb")
                    assert set(result.nodes) == expect, (source, eta)
                    assert not result.degraded
                    assert all(
                        result.statuses[n] == CONFIRMED
                        for n in result.nodes
                    )

    def test_lb_multi_source_parity(self, medium_engine, sharded4):
        sources = [3, 200, 77]  # spans several shards
        for eta in ETAS:
            expect = set(
                medium_engine.query(sources, eta=eta, method="lb").nodes
            )
            got = sharded4.query(sources, eta=eta, method="lb")
            assert set(got.nodes) == expect
            assert list(got.sources) == sources

    def test_lb_hop_bounded_parity(self, medium_engine, sharded4):
        expect = set(
            medium_engine.query(9, eta=0.3, method="lb", max_hops=3).nodes
        )
        got = sharded4.query(9, eta=0.3, method="lb", max_hops=3)
        assert set(got.nodes) == expect

    def test_lbplus_extends_lb_and_is_sound(self, sharded4):
        small = uncertain_gnp(40, 0.12, seed=9)
        exact = exact_reliability_search  # brute oracle on tiny graphs
        with ShardedRQTreeEngine.build(
            small, shards=2, seed=1, mode="inline"
        ) as sharded:
            for eta in (0.25, 0.5):
                lb = set(sharded.query(0, eta=eta, method="lb").nodes)
                lbp = sharded.query(0, eta=eta, method="lb+")
                assert lb <= set(lbp.nodes)
        # and on the medium graph, lb+ never loses lb's certificates
        lb = set(sharded4.query(0, eta=0.3, method="lb").nodes)
        lbp = sharded4.query(0, eta=0.3, method="lb+")
        assert lb <= set(lbp.nodes)
        assert all(lbp.statuses[n] == CONFIRMED for n in lbp.nodes)

    def test_mc_identical_across_shard_counts_at_floor_zero(
        self, medium_graph
    ):
        # With the refinement floor disabled the pool is the whole node
        # set regardless of the partition, so the sampling pass sees the
        # same inputs and the answers are bit-identical.
        results = []
        for shards in (1, 4):
            with ShardedRQTreeEngine.build(
                medium_graph, shards=shards, seed=7, mode="inline",
                mc_refine_floor=0.0,
            ) as sharded:
                results.append(
                    fingerprint(
                        sharded.query(
                            [0, 150], eta=0.4, method="mc",
                            num_samples=400, seed=11,
                        )
                    )
                )
        assert results[0] == results[1]

    def test_mc_agrees_with_exact_on_clear_margins(self):
        # Path reliabilities 0.9, 0.54, 0.108 — far from eta = 0.3, so
        # 1000 worlds decide every node with overwhelming probability.
        graph = uncertain_path([0.9, 0.6, 0.2])
        with ShardedRQTreeEngine.build(
            graph, shards=2, seed=0, mode="inline"
        ) as sharded:
            result = sharded.query(0, eta=0.3, method="mc",
                                   num_samples=1000, seed=5)
        assert set(result.nodes) == exact_reliability_search(graph, [0], 0.3)

    def test_validation_matches_single_engine(self, sharded4):
        from repro.errors import InvalidThresholdError, NodeNotFoundError

        with pytest.raises(NodeNotFoundError):
            sharded4.query(10_000, eta=0.5)
        with pytest.raises(InvalidThresholdError):
            sharded4.query(0, eta=1.5)
        with pytest.raises(ValueError):
            sharded4.query(0, eta=0.5, method="bogus")
        with pytest.raises(ValueError):
            sharded4.query(0, eta=0.5, method="lb+", max_hops=2)

    def test_shard_metrics_are_namespaced(self, medium_graph,
                                          fresh_registry):
        with ShardedRQTreeEngine.build(
            medium_graph, shards=2, seed=7, mode="inline"
        ) as sharded:
            sharded.query(0, eta=0.3, method="lb+")
            snapshot = fresh_registry.snapshot()
            assert snapshot["counters"]["shard.queries"] == 1
            owner = build_shard_plan(medium_graph, 2, seed=7).owner(0)
            assert snapshot["counters"][f"shard.{owner}.queries"] == 1
            assert "shard.scatter_seconds" in snapshot["histograms"]
            assert "shard.refine_seconds" in snapshot["histograms"]
            # lb counterpart: counted as a sharded query, refined at
            # the gateway, but no sub-query and no scatter.
            sharded.query(0, eta=0.3)
        after = fresh_registry.snapshot()
        assert after["counters"]["shard.queries"] == 2
        assert after["counters"][f"shard.{owner}.queries"] == 1
        assert after["histograms"]["shard.scatter_seconds"]["count"] == 1
        assert after["histograms"]["shard.refine_seconds"]["count"] == 2


# ----------------------------------------------------------------------
# lb and exact: answered by the gateway, no sub-query
# ----------------------------------------------------------------------
class TestGatewayAnswers:
    @pytest.mark.parametrize("method", ["lb", "exact"])
    def test_submits_no_sub_query(self, sharded4, method):
        plan = FaultPlan({"shard.handle": "always"})
        with plan:
            result = sharded4.query([0, 123], eta=0.3, method=method)
        assert plan.hits("shard.handle") == 0
        assert not result.degraded, result.degraded_reason
        assert result.candidate_result.clusters_visited == 0
        assert result.candidate_result.flow_calls == 0

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("max_hops", [None, 3])
    def test_lb_is_the_truncated_pass(self, medium_graph, shards, max_hops):
        with ShardedRQTreeEngine.build(
            medium_graph, shards=shards, seed=7, mode="inline"
        ) as sharded:
            for sources in ([0], [3, 200, 77], [123]):
                for eta in ETAS:
                    reached = truncated_pass(
                        medium_graph, sources, eta, max_hops
                    )
                    result = sharded.query(
                        sources, eta=eta, method="lb", max_hops=max_hops
                    )
                    assert result.nodes == set(reached)
                    assert result.statuses == dict.fromkeys(
                        reached, CONFIRMED
                    )
                    assert result.estimates == reached
                    assert all(result.estimates[s] == 1.0 for s in sources)
                    assert result.candidate_result.candidates == set(reached)
                    assert not result.degraded

    def test_expired_deadline_returns_the_sources(self, sharded4):
        result = sharded4.query(
            [0, 123], eta=0.3, method="lb",
            budget=QueryBudget(deadline_seconds=1e-9),
        )
        assert result.degraded
        assert "deadline" in result.degraded_reason
        assert result.nodes == {0, 123}
        assert result.statuses == {0: CONFIRMED, 123: CONFIRMED}

    def test_candidate_cap_does_not_apply_to_lb(self, medium_graph,
                                                sharded4):
        result = sharded4.query(
            0, eta=0.3, method="lb",
            budget=QueryBudget(max_candidate_nodes=1),
        )
        assert not result.degraded, result.degraded_reason
        assert result.nodes == set(truncated_pass(medium_graph, [0], 0.3))
        assert len(result.nodes) > 1


# ----------------------------------------------------------------------
# Height ratio: the highest per-shard climb
# ----------------------------------------------------------------------
class TestHeightRatio:
    def test_single_shard_reads_its_own_tree(self, medium_graph, sharded1):
        plain = RQTreeEngine.build(
            medium_graph, seed=derive_seed(7, "shard.build", 0)
        )
        ratios = []
        for source in SOURCES:
            expect = plain.query(source, eta=0.3, method="lb").height_ratio
            for method in ("lb+", "mc"):
                got = sharded1.query(
                    source, eta=0.3, method=method, num_samples=200, seed=1
                )
                assert got.height_ratio == pytest.approx(expect)
            ratios.append(expect)
        assert min(ratios) < 1.0  # the walks did not all climb to the root

    def test_multi_shard_reports_the_highest_climb(self, sharded4):
        sources = [3, 200, 77]  # spans several shards
        by_shard = {}
        for node in sources:
            by_shard.setdefault(sharded4.plan.owner(node), []).append(node)
        assert len(by_shard) > 1
        per_shard = []
        for shard_id, owned in by_shard.items():
            client = sharded4._client(shard_id)
            response = client.wait(
                client.submit({"sources": owned, "eta": 0.3})
            )
            per_shard.append(
                height_ratio(
                    response["tree_height"], response["min_selected_depth"]
                )
            )
        got = sharded4.query(sources, eta=0.3, method="lb+")
        assert got.height_ratio == pytest.approx(max(per_shard))
        assert got.height_ratio < 1.0

    @pytest.mark.parametrize("method", ["lb", "exact"])
    def test_no_walk_reads_zero(self, sharded4, method):
        assert sharded4.query(0, eta=0.3, method=method).height_ratio == 0.0


# ----------------------------------------------------------------------
# Degradation: budgets, faults, lifecycle
# ----------------------------------------------------------------------
class TestDegradation:
    def test_expired_budget_answers_are_sound(self, medium_engine,
                                              sharded4):
        budget = QueryBudget(deadline_seconds=1e-9)
        truth = set(medium_engine.query(0, eta=0.3, method="lb").nodes)
        # lb+ scatters the expired budget to the shards.
        for method in ("lb+", "lb"):
            result = sharded4.query(0, eta=0.3, method=method,
                                    budget=budget)
            assert result.degraded
            assert result.degraded_reason
            assert set(result.nodes) <= truth          # never wrong
            assert 0 in result.nodes                   # sources stay in
            assert all(
                result.statuses[n] in (CONFIRMED, UNVERIFIED)
                for n in result.statuses
            )

    def test_faulted_shards_degrade_but_lb_stays_exact(
        self, medium_engine, sharded4
    ):
        # Fault plans are process-global, so they reach inline shards.
        expect = set(medium_engine.query(0, eta=0.3, method="lb").nodes)
        plan = FaultPlan({"shard.handle": "always"})
        with plan:
            result = sharded4.query(0, eta=0.3, method="lb+")
        assert plan.hits("shard.handle") >= 1
        assert result.degraded
        assert "shard" in result.degraded_reason
        # The gateway's refinement certifies every whole-graph lb node,
        # so even a query that lost every shard keeps the lb answer.
        assert expect <= set(result.nodes)
        assert all(result.statuses[n] == CONFIRMED for n in result.nodes)
        # lb counterpart: no shard is asked, so the fault cannot touch it.
        with plan:
            lb = sharded4.query(0, eta=0.3, method="lb")
        assert plan.hits("shard.handle") == 1
        assert not lb.degraded
        assert set(lb.nodes) == expect

    def test_seeded_fault_storm_never_changes_lb_answers(
        self, medium_engine, sharded4
    ):
        expects = {
            (s, eta): set(
                medium_engine.query(s, eta=eta, method="lb").nodes
            )
            for s in (0, 123) for eta in (0.2, 0.5)
        }
        fault_free = {
            key: fingerprint(sharded4.query(key[0], eta=key[1],
                                            method="lb+"))
            for key in expects
        }
        plan = FaultPlan.seeded(3, ["shard.handle"], probability=0.5)
        with plan:
            for (s, eta), expect in expects.items():
                got = sharded4.query(s, eta=eta, method="lb+")
                assert expect <= set(got.nodes)
                if not got.degraded:
                    assert fingerprint(got) == fault_free[(s, eta)]
                lb = sharded4.query(s, eta=eta, method="lb")
                assert set(lb.nodes) == expect
                assert not lb.degraded
        assert plan.hits("shard.handle") >= 1

    def test_closed_engine_refuses_queries(self, medium_graph):
        sharded = ShardedRQTreeEngine.build(
            medium_graph, shards=2, seed=7, mode="inline"
        )
        sharded.close()
        sharded.close()  # idempotent
        with pytest.raises(ShardUnavailableError):
            sharded.query(0, eta=0.5)


# ----------------------------------------------------------------------
# Process mode (spawned workers)
# ----------------------------------------------------------------------
class TestProcessMode:
    def test_process_shards_match_plain_engine(self):
        graph = uncertain_gnp(120, 0.04, seed=5)
        plain = RQTreeEngine.build(graph, seed=3)
        with ShardedRQTreeEngine.build(
            graph, shards=2, seed=3, mode="process"
        ) as sharded:
            assert sharded.num_shards == 2
            assert sharded.tree_height >= 1
            with ShardedRQTreeEngine.build(
                graph, shards=2, seed=3, mode="inline"
            ) as inline:
                for sources, eta in (
                    ([0], 0.3), ([5, 60], 0.5), ([17], 0.7)
                ):
                    expect = set(
                        plain.query(sources, eta=eta, method="lb").nodes
                    )
                    got = sharded.query(sources, eta=eta, method="lb")
                    assert set(got.nodes) == expect
                    assert not got.degraded
                    # lb+ reaches the workers: same answer as the
                    # in-process runtimes, and it keeps the lb answer.
                    got = sharded.query(sources, eta=eta, method="lb+")
                    assert not got.degraded, got.degraded_reason
                    assert expect <= set(got.nodes)
                    assert fingerprint(got) == fingerprint(
                        inline.query(sources, eta=eta, method="lb+")
                    )

    def test_cross_shard_scatter_is_not_degraded(self):
        # Regression: the gateway submits to every owning shard before
        # waiting, so shard B's response can land while the gateway is
        # still blocked on shard A.  The receiver thread used to pop the
        # pending entry on arrival, making the later wait() report
        # "unknown request handle" and needlessly degrade the query.
        graph = uncertain_gnp(120, 0.04, seed=5)
        plain = RQTreeEngine.build(graph, seed=3)
        with ShardedRQTreeEngine.build(
            graph, shards=3, seed=3, mode="process"
        ) as sharded:
            owners = {node: sharded.plan.owner(node) for node in range(120)}
            by_owner = {}
            for node, owner in owners.items():
                by_owner.setdefault(owner, node)
            sources = sorted(by_owner.values())  # one source per shard
            assert len({owners[s] for s in sources}) == sharded.num_shards
            expect = set(plain.query(sources, eta=0.4, method="lb").nodes)
            answers = set()
            for _ in range(3):  # repeat: the race was timing-dependent
                got = sharded.query(sources, eta=0.4, method="lb+")
                assert not got.degraded, got.degraded_reason
                assert expect <= set(got.nodes)
                answers.add(fingerprint(got))
            assert len(answers) == 1

    def test_dead_worker_degrades_but_lb_stays_exact(self):
        graph = uncertain_gnp(80, 0.05, seed=6)
        plain = RQTreeEngine.build(graph, seed=2)
        with ShardedRQTreeEngine.build(
            graph, shards=2, seed=2, mode="process"
        ) as sharded:
            victim = sharded.plan.owner(0)
            sharded._clients[victim]._process.terminate()
            sharded._clients[victim]._process.join(timeout=10)
            expect = set(plain.query(0, eta=0.4, method="lb").nodes)
            result = sharded.query(0, eta=0.4, method="lb+")
            assert result.degraded
            assert expect <= set(result.nodes)
            # lb counterpart: the dead worker is never asked.
            lb = sharded.query(0, eta=0.4, method="lb")
            assert not lb.degraded
            assert set(lb.nodes) == expect


# ----------------------------------------------------------------------
# Service integration
# ----------------------------------------------------------------------
class TestServiceIntegration:
    def test_service_with_shards_matches_plain(self, medium_graph,
                                               fresh_registry):
        from repro.service import ReliabilityService

        plain = RQTreeEngine.build(medium_graph, seed=7)
        service = ReliabilityService(
            plain, workers=2, shards=2, shard_mode="inline", shard_seed=7
        )
        service.start()
        try:
            expect = set(plain.query(0, eta=0.3, method="lb").nodes)
            result = service.query(0, 0.3, method="lb")
            assert set(result.nodes) == expect
            snapshot = service.metrics_snapshot()
            assert snapshot["service"]["shards"] == 2
            assert snapshot["service"]["shard_mode"] == "inline"
        finally:
            service.stop()

    def test_service_rejects_double_sharding(self, medium_graph):
        from repro.service import ReliabilityService

        with ShardedRQTreeEngine.build(
            medium_graph, shards=2, seed=7, mode="inline"
        ) as sharded:
            with pytest.raises(ValueError):
                ReliabilityService(sharded, shards=2)

    def test_inline_client_reports_runtime_errors(self, medium_graph):
        plan = build_shard_plan(medium_graph, 2, seed=7)
        client = InlineShardClient(
            build_shard_payload(medium_graph, plan, 0, seed=7)
        )
        handle = client.submit({"sources": [0]})  # missing eta
        with pytest.raises(ShardUnavailableError):
            client.wait(handle)
