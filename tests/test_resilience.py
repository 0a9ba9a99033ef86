"""End-to-end tests of the resilience subsystem.

Every degradation path is *provoked*, not just reasoned about:

* deterministic fault injection (:class:`repro.resilience.FaultPlan`)
  at the named points compiled into the library;
* sampling-kernel failures degrading to sources-confirmed,
  rest-unverified answers instead of raising;
* budgeted queries returning partial, statused results instead of
  raising;
* clean :class:`ReproError` surfaces (library and CLI).
"""

from __future__ import annotations

import logging

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import (
    CONFIRMED,
    REJECTED,
    UNVERIFIED,
    FaultPlan,
    InjectedFault,
    QueryBudget,
    QueryDeadlineError,
    ReproError,
    RQTreeEngine,
    SamplingKernelError,
    UncertainGraph,
)
from repro.cli import main
from repro.core.verification import (
    verify_lower_bound_report,
    verify_sampling,
    verify_sampling_report,
)
from repro.graph.generators import nethept_like, uncertain_gnp
from repro.graph.io import write_edge_list
from repro.graph.sampling import ReachabilityFrequencyEstimator
from repro.resilience import (
    INJECTION_POINTS,
    fault_point,
    wilson_bounds,
    wilson_interval,
)

#: A budget whose deadline is long past the moment it starts.
EXPIRED = QueryBudget(deadline_seconds=1e-9)


@pytest.fixture(scope="module")
def er2000():
    """The acceptance-scale workload: n=2000 ER graph plus its engine."""
    graph = uncertain_gnp(2000, 8.0 / 2000, seed=42)
    return graph, RQTreeEngine.build(graph, seed=0)


@pytest.fixture(scope="module")
def small_engine():
    graph = nethept_like(n=60, seed=3)
    return graph, RQTreeEngine.build(graph, seed=0)


# ----------------------------------------------------------------------
# Fault-injection harness
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown injection point"):
            FaultPlan({"no.such.point": 1})

    def test_bad_triggers_rejected(self):
        with pytest.raises(ValueError, match="always"):
            FaultPlan({"mc.kernel.chunk": "sometimes"})
        with pytest.raises(ValueError, match=">= 1"):
            FaultPlan({"mc.kernel.chunk": 0})

    def test_fault_point_is_noop_without_plan(self):
        fault_point("mc.kernel.chunk")  # must not raise

    def test_nth_hit_semantics(self):
        plan = FaultPlan({"mc.kernel.chunk": 3})
        with plan:
            fault_point("mc.kernel.chunk")
            fault_point("mc.kernel.chunk")
            with pytest.raises(InjectedFault) as excinfo:
                fault_point("mc.kernel.chunk")
            fault_point("mc.kernel.chunk")  # only the 3rd hit fires
        assert excinfo.value.point == "mc.kernel.chunk"
        assert excinfo.value.hit == 3
        assert plan.hits("mc.kernel.chunk") == 4

    def test_always_and_hit_collections(self):
        with FaultPlan({"csr.snapshot": "always"}):
            with pytest.raises(InjectedFault):
                fault_point("csr.snapshot")
        with FaultPlan({"csr.snapshot": {2, 4}}):
            fault_point("csr.snapshot")
            with pytest.raises(InjectedFault):
                fault_point("csr.snapshot")
            fault_point("csr.snapshot")
            with pytest.raises(InjectedFault):
                fault_point("csr.snapshot")

    def test_seeded_plans_are_reproducible(self):
        def schedule(plan, hits=50):
            fired = []
            with plan:
                for i in range(hits):
                    try:
                        fault_point("mc.kernel.chunk")
                    except InjectedFault:
                        fired.append(i)
            return fired

        a = schedule(FaultPlan.seeded(7, ["mc.kernel.chunk"], 0.3))
        b = schedule(FaultPlan.seeded(7, ["mc.kernel.chunk"], 0.3))
        c = schedule(FaultPlan.seeded(8, ["mc.kernel.chunk"], 0.3))
        assert a == b
        assert a != c
        assert 0 < len(a) < 50

    def test_nesting_rejected(self):
        with FaultPlan({}):
            with pytest.raises(RuntimeError, match="already active"):
                with FaultPlan({}):
                    pass

    def test_plan_uninstalled_after_exit(self):
        with pytest.raises(InjectedFault):
            with FaultPlan({"csr.snapshot": "always"}):
                fault_point("csr.snapshot")
        fault_point("csr.snapshot")  # no plan active any more

    def test_injected_fault_is_repro_error(self):
        assert issubclass(InjectedFault, ReproError)

    def test_documented_points_exist(self):
        assert {
            "csr.snapshot",
            "mc.kernel.chunk",
            "candidates.generate",
            "rqtree.serialize",
            "rqtree.deserialize",
        } <= INJECTION_POINTS


# ----------------------------------------------------------------------
# Sampling-kernel failures degrade; they do not fall back
# ----------------------------------------------------------------------
def _assert_kernel_degraded(result, sources, point):
    """The expired-budget answer: sources confirmed, the rest of the
    candidates unverified, and a reason naming the error."""
    assert result.degraded
    assert result.nodes == set(sources)
    assert "InjectedFault" in result.degraded_reason
    assert point in result.degraded_reason
    for node, status in result.statuses.items():
        assert status == (CONFIRMED if node in sources else UNVERIFIED)


class TestKernelFailure:
    def test_estimator_raises_typed_error_and_keeps_tallies(self, er2000):
        graph, _ = er2000
        estimator = ReachabilityFrequencyEstimator(graph, [0], seed=11)
        estimator.run(100)
        before = estimator.counts()
        with FaultPlan({"mc.kernel.chunk": "always"}) as plan:
            with pytest.raises(SamplingKernelError) as raised:
                estimator.run(100)
        assert plan.hits("mc.kernel.chunk") >= 1
        assert isinstance(raised.value.error, InjectedFault)
        assert estimator.counts() == before
        assert estimator.num_worlds == 100

    @pytest.mark.parametrize("method", ["mc", "lazy", "rss", "auto", "exact"])
    def test_csr_snapshot_fault_degrades(self, er2000, method):
        _, engine = er2000
        with FaultPlan({"csr.snapshot": "always"}):
            result = engine.query(
                [0], eta=0.05, method=method, num_samples=200, seed=5
            )
        _assert_kernel_degraded(result, {0}, "csr.snapshot")

    def test_kernel_failure_logs_structured_warning(self, er2000, caplog):
        _, engine = er2000
        with caplog.at_level(logging.WARNING, logger="repro.resilience"):
            with FaultPlan({"mc.kernel.chunk": "always"}):
                engine.query([0], eta=0.05, method="mc", num_samples=50,
                             seed=5)
        records = [
            r for r in caplog.records
            if getattr(r, "event", None) == "sampling_kernel_failed"
        ]
        assert len(records) == 1
        assert records[0].error_type == "InjectedFault"
        assert records[0].estimator == "mc"

    @pytest.mark.parametrize("method", ["mc", "lazy", "rss", "auto", "exact"])
    @pytest.mark.parametrize("budgeted", [False, True])
    def test_engine_degrades_under_fault_storm(self, er2000, method, budgeted):
        """Acceptance: with every kernel chunk faulted, each sampled
        method returns the degraded answer instead of raising."""
        _, engine = er2000
        budget = QueryBudget(deadline_seconds=60.0) if budgeted else None
        with FaultPlan({"mc.kernel.chunk": "always"}) as plan:
            result = engine.query(
                [0], eta=0.05, method=method, num_samples=400, seed=7,
                budget=budget,
            )
        assert plan.hits("mc.kernel.chunk") >= 1
        _assert_kernel_degraded(result, {0}, "mc.kernel.chunk")

    def test_sharded_gateway_degrades_under_fault_storm(self, er2000):
        from repro import ShardedRQTreeEngine

        graph, _ = er2000
        with ShardedRQTreeEngine.build(
            graph, shards=2, seed=0, mode="inline"
        ) as sharded:
            with FaultPlan({"mc.kernel.chunk": "always"}):
                result = sharded.query(
                    [0], eta=0.05, method="mc", num_samples=200, seed=7
                )
        assert result.degraded
        assert 0 in result.nodes
        assert "InjectedFault" in result.degraded_reason

    def test_no_degradation_without_faults(self, er2000):
        _, engine = er2000
        result = engine.query(
            [0], eta=0.05, method="mc", num_samples=200, seed=7
        )
        assert not result.degraded
        assert not result.unverified


# ----------------------------------------------------------------------
# Clean ReproError surfaces for non-recoverable injection points
# ----------------------------------------------------------------------
class TestFaultSurfaces:
    def test_candidate_generation_fault_surfaces_as_repro_error(
        self, small_engine
    ):
        _, engine = small_engine
        with FaultPlan({"candidates.generate": 1}):
            with pytest.raises(ReproError):
                engine.query(0, eta=0.4)

    def test_serialization_faults(self, small_engine, tmp_path):
        _, engine = small_engine
        path = tmp_path / "index.json"
        with FaultPlan({"rqtree.serialize": 1}):
            with pytest.raises(InjectedFault):
                engine.tree.save(path)
        engine.tree.save(path)
        with FaultPlan({"rqtree.deserialize": 1}):
            with pytest.raises(InjectedFault):
                type(engine.tree).load(path)

    def test_query_recovers_after_plan_removed(self, small_engine):
        _, engine = small_engine
        with FaultPlan({"candidates.generate": 1}):
            with pytest.raises(ReproError):
                engine.query(0, eta=0.4)
        result = engine.query(0, eta=0.4)
        assert result.nodes  # the source at minimum


# ----------------------------------------------------------------------
# Query budgets and graceful degradation
# ----------------------------------------------------------------------
class TestQueryBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            QueryBudget(deadline_seconds=0)
        with pytest.raises(ValueError):
            QueryBudget(max_worlds=0)
        with pytest.raises(ValueError):
            QueryBudget(max_candidate_nodes=0)
        with pytest.raises(ValueError):
            QueryBudget(confidence=0.4)

    def test_wilson_interval_sanity(self):
        low, high = wilson_interval(80, 100)
        assert 0.0 <= low < 0.8 < high <= 1.0
        tight_low, tight_high = wilson_interval(8000, 10000)
        assert (tight_high - tight_low) < (high - low)
        assert wilson_interval(0, 0) == (0.0, 1.0)

    @given(
        data=st.data(),
        trials=st.integers(1, 16).map(lambda chunks: 256 * chunks),
        confidence=st.sampled_from([0.9, 0.95, 0.975, 0.99]),
    )
    def test_wilson_bounds_equal_wilson_interval_bit_for_bit(
        self, data, trials, confidence
    ):
        hits = np.array(data.draw(
            st.lists(st.integers(0, trials), min_size=1, max_size=40)
        ), dtype=np.int64)
        low, high = wilson_bounds(hits, trials, confidence)
        expected = np.array(
            [wilson_interval(h, trials, confidence) for h in hits.tolist()]
        )
        assert low.tobytes() == np.ascontiguousarray(expected[:, 0]).tobytes()
        assert high.tobytes() == np.ascontiguousarray(expected[:, 1]).tobytes()

    def test_deadline_expiry_returns_partial_result(self, er2000):
        """Acceptance: 50 ms deadline on the n=2000 graph returns a
        degraded partial result, never an unhandled exception."""
        graph, engine = er2000
        result = engine.query(
            [0], eta=0.9, method="mc", num_samples=20000, seed=1,
            budget=QueryBudget(deadline_seconds=0.05),
        )
        assert result.degraded
        assert result.degraded_reason
        assert result.worlds_used < 20000
        candidates = result.candidate_result.candidates
        assert set(result.statuses) == candidates
        assert result.unverified  # some candidates ran out of budget
        assert result.nodes == {
            n for n, s in result.statuses.items() if s == CONFIRMED
        }
        assert result.achieved_confidence < 1.0
        # Sources are answers by definition even in a zero-world run.
        assert result.statuses[0] == CONFIRMED

    def test_expired_deadline_degrades_candidates_to_root(self, small_engine):
        graph, engine = small_engine
        result = engine.query(0, eta=0.4, budget=EXPIRED)
        assert result.degraded
        assert result.candidate_result.degraded
        assert result.candidate_result.candidates == set(graph.nodes())
        assert set(result.statuses) == set(graph.nodes())
        assert result.statuses[0] == CONFIRMED
        assert all(
            status in (CONFIRMED, UNVERIFIED)
            for status in result.statuses.values()
        )

    def test_generous_deadline_is_not_degraded(self, small_engine):
        _, engine = small_engine
        result = engine.query(
            0, eta=0.4, method="mc", num_samples=200, seed=2,
            budget=QueryBudget(deadline_seconds=60.0),
        )
        assert not result.degraded
        assert result.achieved_confidence == 1.0
        assert not result.unverified

    def test_max_worlds_cap(self, small_engine):
        _, engine = small_engine
        result = engine.query(
            0, eta=0.4, method="mc", num_samples=5000, seed=2,
            budget=QueryBudget(deadline_seconds=60.0, max_worlds=64),
        )
        assert result.worlds_used <= 64
        # A capped-but-completed estimate is coarser, not partial.
        assert not result.unverified
        assert result.achieved_confidence == 1.0

    def test_max_candidate_nodes_cap(self, small_engine):
        graph, engine = small_engine
        result = engine.query(
            0, eta=0.4, method="mc", num_samples=200, seed=2,
            budget=QueryBudget(
                deadline_seconds=60.0, max_candidate_nodes=3
            ),
        )
        candidates = result.candidate_result.candidates
        if len(candidates) > 3:
            assert result.degraded
            assert result.unverified
            assert "cap" in (result.degraded_reason or "")
        assert set(result.statuses) == candidates

    def test_budgeted_lb_method(self, small_engine):
        _, engine = small_engine
        unbudgeted = engine.query(0, eta=0.4, method="lb")
        budgeted = engine.query(
            0, eta=0.4, method="lb",
            budget=QueryBudget(deadline_seconds=60.0),
        )
        assert budgeted.nodes == unbudgeted.nodes
        assert not budgeted.degraded
        expired = engine.query(0, eta=0.4, method="lb", budget=EXPIRED)
        assert expired.degraded
        assert expired.statuses[0] == CONFIRMED
        assert all(
            s in (CONFIRMED, UNVERIFIED) for s in expired.statuses.values()
        )

    def test_budgeted_lb_plus_method(self, small_engine):
        _, engine = small_engine
        expired = engine.query(0, eta=0.4, method="lb+", budget=EXPIRED)
        assert expired.degraded
        assert expired.unverified
        fine = engine.query(
            0, eta=0.4, method="lb+",
            budget=QueryBudget(deadline_seconds=60.0),
        )
        assert fine.nodes == engine.query(0, eta=0.4, method="lb+").nodes

    def test_unbudgeted_statuses_cover_all_candidates(self, small_engine):
        _, engine = small_engine
        result = engine.query(0, eta=0.4, method="mc", seed=2)
        assert set(result.statuses) == result.candidate_result.candidates
        assert set(result.statuses.values()) <= {CONFIRMED, REJECTED}
        assert not result.degraded

    def test_set_returning_verifiers_raise_on_expiry(self, small_engine):
        graph, engine = small_engine
        candidates = set(graph.nodes())
        with pytest.raises(QueryDeadlineError):
            verify_sampling(
                graph, [0], 0.4, candidates, num_samples=100, seed=1,
                budget=EXPIRED,
            )
        report = verify_sampling_report(
            graph, [0], 0.4, candidates, num_samples=100, seed=1,
            budget=EXPIRED,
        )
        assert report.degraded
        assert report.unverified

    def test_lower_bound_report_expired(self, small_engine):
        graph, _ = small_engine
        report = verify_lower_bound_report(
            graph, [0], 0.4, set(graph.nodes()), budget=EXPIRED
        )
        assert report.degraded
        assert report.kept == {0}
        assert report.statuses[0] == CONFIRMED

    def test_unbudgeted_mc_query_matches_seed_semantics(self, small_engine):
        """budget=None must reproduce the seed pipeline exactly: the
        engine answer equals a direct ``verify_sampling`` run (one
        estimator pass thresholded at eta*K over the candidate set)."""
        graph, engine = small_engine
        result = engine.query(0, eta=0.4, method="mc", num_samples=150,
                              seed=9)
        candidates = engine.candidates(0, 0.4).candidates
        assert result.nodes == verify_sampling(
            graph, [0], 0.4, candidates, num_samples=150, seed=9,
        )


# ----------------------------------------------------------------------
# CLI error and degradation surfaces
# ----------------------------------------------------------------------
class TestCLI:
    @pytest.fixture()
    def graph_file(self, tmp_path):
        graph = nethept_like(n=40, seed=1)
        path = tmp_path / "graph.txt"
        write_edge_list(graph, path)
        return str(path)

    def test_repro_error_exits_2_with_one_line(self, graph_file, capsys):
        code = main([
            "query", "--graph", graph_file, "--sources", "0",
            "--eta", "1.5",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "InvalidThresholdError" in captured.err
        assert "Traceback" not in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_injected_fault_exits_2(self, graph_file, capsys):
        with FaultPlan({"candidates.generate": 1}):
            code = main([
                "query", "--graph", graph_file, "--sources", "0",
                "--eta", "0.5",
            ])
        captured = capsys.readouterr()
        assert code == 2
        assert "InjectedFault" in captured.err

    def test_degraded_query_exits_0_with_marker(self, graph_file, capsys):
        code = main([
            "query", "--graph", graph_file, "--sources", "0",
            "--eta", "0.5", "--method", "mc",
            "--deadline-ms", "0.0001",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "DEGRADED" in captured.out

    def test_unbudgeted_query_has_no_marker(self, graph_file, capsys):
        code = main([
            "query", "--graph", graph_file, "--sources", "0",
            "--eta", "0.5",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "DEGRADED" not in captured.out
