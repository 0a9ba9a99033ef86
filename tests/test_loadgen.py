"""The traffic harness: deterministic schedules, the driver, the CLI.

The acceptance contract this file enforces end to end: *same profile +
same seed + same shape parameters → identical request sequence* —
structurally (:func:`generate_schedule` twice) and through the JSON
round-trip (``--record`` then ``--replay``).  The driver tests run a
real open-loop run over loopback against the asyncio gateway and
assert the SLO report reflects what actually happened on the wire.
"""

from __future__ import annotations

import json

import pytest

from repro.loadgen import (
    PROFILES,
    SLOTargets,
    drive,
    generate_schedule,
    get_profile,
)
from repro.loadgen.generator import (
    SCHEDULE_VERSION,
    load_schedule,
    save_schedule,
)
from repro.loadgen.profiles import DiurnalCurve, StormSpec, WorkloadProfile
from repro.service.metrics import MetricsRegistry, set_registry


@pytest.fixture()
def fresh_registry():
    old = set_registry(MetricsRegistry())
    try:
        yield
    finally:
        set_registry(old)


# ----------------------------------------------------------------------
# Profiles
# ----------------------------------------------------------------------
def test_profile_roster_and_lookup():
    assert {"steady", "mixed", "read_heavy", "update_heavy",
            "storm"} <= set(PROFILES)
    assert get_profile("mixed").storm is not None
    assert get_profile("steady").storm is None
    with pytest.raises(KeyError, match="steady"):
        get_profile("nope")


def test_profile_validation():
    with pytest.raises(ValueError, match="amplitude"):
        DiurnalCurve(amplitude=1.0)
    with pytest.raises(ValueError, match="storm window"):
        StormSpec(start_fraction=0.6, end_fraction=0.4)
    with pytest.raises(ValueError, match="method_weights"):
        WorkloadProfile(name="x", description="", method_weights={})


def test_diurnal_curve_breathes_around_one():
    curve = DiurnalCurve(amplitude=0.5, cycles=1.0)
    multipliers = [curve.rate_multiplier(i / 100) for i in range(101)]
    assert max(multipliers) == pytest.approx(1.5, abs=0.01)
    assert min(multipliers) == pytest.approx(0.5, abs=0.01)
    flat = DiurnalCurve(amplitude=0.0)
    assert flat.rate_multiplier(0.37) == 1.0


# ----------------------------------------------------------------------
# Schedule generation: the determinism contract
# ----------------------------------------------------------------------
def test_same_seed_same_schedule():
    kwargs = dict(seed=42, duration_seconds=5.0, target_qps=20.0,
                  num_nodes=500)
    first = generate_schedule("mixed", **kwargs)
    second = generate_schedule("mixed", **kwargs)
    assert first == second
    assert first.as_dict() == second.as_dict()


def test_different_seed_different_schedule():
    kwargs = dict(duration_seconds=5.0, target_qps=20.0, num_nodes=500)
    assert (generate_schedule("mixed", seed=1, **kwargs)
            != generate_schedule("mixed", seed=2, **kwargs))


def test_schedule_shape_and_bodies():
    schedule = generate_schedule(
        "mixed", seed=7, duration_seconds=6.0, target_qps=25.0,
        num_nodes=400,
    )
    profile = get_profile("mixed")
    offsets = [spec.offset for spec in schedule.requests]
    assert offsets == sorted(offsets)
    assert all(0.0 <= off <= 6.0 for off in offsets)
    kinds = {spec.kind for spec in schedule.requests}
    assert kinds <= {"query", "update", "storm_start", "storm_end"}
    assert {"query", "update", "storm_start", "storm_end"} <= kinds
    for spec in schedule.requests:
        if spec.kind == "query":
            assert spec.body["method"] in profile.method_weights
            assert spec.body["eta"] in profile.eta_choices
            assert all(0 <= s < 400 for s in spec.body["sources"])
            if "num_samples" in spec.body:
                assert spec.body["num_samples"] in (
                    profile.num_samples_choices
                )
        elif spec.kind == "update":
            for op in spec.body["updates"]:
                assert op["op"] in ("set", "delete")
                assert op["u"] != op["v"]
                if op["op"] == "set":
                    assert 0.0 < op["p"] <= 1.0
    # Open-loop arrivals: the realized rate is Poisson around target *
    # mean diurnal multiplier (~1.0 over a full cycle); allow 40%.
    assert schedule.offered_qps == pytest.approx(25.0, rel=0.4)


def test_storm_events_bracket_the_configured_window():
    schedule = generate_schedule(
        "storm", seed=3, duration_seconds=8.0, target_qps=10.0,
        num_nodes=100,
    )
    storm = get_profile("storm").storm
    starts = [s for s in schedule.requests if s.kind == "storm_start"]
    ends = [s for s in schedule.requests if s.kind == "storm_end"]
    assert len(starts) == 1 and len(ends) == 1
    assert starts[0].offset == pytest.approx(storm.start_fraction * 8.0)
    assert ends[0].offset == pytest.approx(storm.end_fraction * 8.0)
    assert set(starts[0].body["points"]) == set(storm.points)


def test_zipf_skew_concentrates_sources():
    kwargs = dict(seed=11, duration_seconds=30.0, target_qps=30.0,
                  num_nodes=1000)
    skewed = generate_schedule("read_heavy", **kwargs)  # zipf 1.4
    uniform = generate_schedule("steady", **kwargs)      # zipf 0

    def top_share(schedule):
        counts = {}
        total = 0
        for spec in schedule.requests:
            if spec.kind != "query":
                continue
            for source in spec.body["sources"]:
                counts[source] = counts.get(source, 0) + 1
                total += 1
        return max(counts.values()) / total

    assert top_share(skewed) > 3 * top_share(uniform)


def test_generate_schedule_validates_inputs():
    with pytest.raises(ValueError, match="duration"):
        generate_schedule("steady", seed=0, duration_seconds=0,
                          target_qps=1.0, num_nodes=10)
    with pytest.raises(ValueError, match="target_qps"):
        generate_schedule("steady", seed=0, duration_seconds=1.0,
                          target_qps=0, num_nodes=10)


# ----------------------------------------------------------------------
# Record / replay round-trip
# ----------------------------------------------------------------------
def test_save_load_round_trip(tmp_path):
    schedule = generate_schedule(
        "mixed", seed=9, duration_seconds=3.0, target_qps=12.0,
        num_nodes=64,
    )
    path = tmp_path / "schedule.json"
    save_schedule(schedule, path)
    assert load_schedule(path) == schedule


def test_load_rejects_wrong_version(tmp_path):
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps({
        "version": SCHEDULE_VERSION + 1, "profile": "steady", "seed": 0,
        "duration_seconds": 1.0, "target_qps": 1.0, "num_nodes": 1,
        "requests": [],
    }))
    with pytest.raises(ValueError, match="schedule version"):
        load_schedule(path)


# ----------------------------------------------------------------------
# Driver end-to-end (open loop over loopback)
# ----------------------------------------------------------------------
@pytest.fixture()
def gateway(fresh_registry, medium_engine):
    from repro.service.aio_gateway import AioGateway
    from repro.service.server import ReliabilityService

    service = ReliabilityService(medium_engine, workers=2)
    with AioGateway(service, host="127.0.0.1", port=0) as server:
        yield server


def test_drive_reports_real_traffic(gateway, medium_graph):
    schedule = generate_schedule(
        "steady", seed=5, duration_seconds=2.0, target_qps=10.0,
        num_nodes=medium_graph.num_nodes,
    )
    report = drive(
        schedule, gateway.url,
        targets=SLOTargets(error_rate=0.0, degraded_rate=0.0),
    )
    requests = report["requests"]
    expected = sum(
        1 for spec in schedule.requests if spec.kind == "query"
    )
    assert requests["completed"] == expected
    assert requests["errors"] == 0
    assert report["gates"]["ok"], report["gates"]["breaches"]
    assert report["latency_ms"]["p99"] >= report["latency_ms"]["p50"] > 0
    assert report["throughput"]["achieved_qps"] > 0
    # The quality block flowed through: lb answers report confidence.
    assert report["quality"]["mean_achieved_confidence"] > 0


def test_drive_rejects_dead_target(fresh_registry):
    from repro.loadgen.driver import DriveError

    schedule = generate_schedule(
        "steady", seed=1, duration_seconds=1.0, target_qps=5.0,
        num_nodes=10,
    )
    with pytest.raises(DriveError, match="/metrics"):
        drive(schedule, "http://127.0.0.1:9")  # discard port: never open


def test_drive_arms_storm_in_process(fresh_registry, medium_engine):
    """A storm window inside the run must actually reach the engine,
    and must stop reaching it when the window closes."""
    from repro.resilience import faultinject
    from repro.service.aio_gateway import AioGateway
    from repro.service.server import ReliabilityService

    # candidates.generate fires on every uncached query and surfaces
    # as a deterministic 400 through the service, so with p=1.0 the
    # storm window is directly legible in the error counts.
    profile = WorkloadProfile(
        name="storm_candidates",
        description="always-on faults at the candidate generator",
        zipf_exponent=0.0,
        method_weights={"lb": 1.0},
        storm=StormSpec(
            points=("candidates.generate",), probability=1.0,
            start_fraction=0.3, end_fraction=0.7,
        ),
    )
    schedule = generate_schedule(
        profile, seed=13, duration_seconds=2.5, target_qps=12.0,
        num_nodes=medium_engine.graph.num_nodes,
    )
    service = ReliabilityService(medium_engine, workers=2)
    with AioGateway(service, host="127.0.0.1", port=0) as server:
        report = drive(schedule, server.url, arm_storms=True)
    assert report["requests"]["storms"] == 1
    assert faultinject._ACTIVE is None  # always disarmed afterwards
    requests = report["requests"]
    # Faults fired inside the window (errors > 0) but not outside it
    # (the ~60% of traffic beyond the window kept succeeding).
    assert 0 < requests["errors"] < requests["completed"]
    assert set(report["errors"]["by_type"]) == {"http_400"}


# ----------------------------------------------------------------------
# CLI: record, replay, gates
# ----------------------------------------------------------------------
def test_cli_loadgen_record_then_replay(
    fresh_registry, tmp_path, medium_graph
):
    from repro.cli import main
    from repro.graph.io import write_edge_list

    graph_path = tmp_path / "graph.txt"
    write_edge_list(medium_graph, graph_path)
    schedule_path = tmp_path / "schedule.json"
    report_path = tmp_path / "report.json"

    assert main([
        "loadgen", "--graph", str(graph_path), "--profile", "steady",
        "--duration", "1.5", "--target-qps", "8", "--seed", "21",
        "--workers", "2", "--record", str(schedule_path),
        "--report-out", str(report_path),
        "--gate-error-rate", "0.0",
    ]) == 0
    recorded = load_schedule(schedule_path)
    assert recorded == generate_schedule(
        "steady", seed=21, duration_seconds=1.5, target_qps=8.0,
        num_nodes=medium_graph.num_nodes,
    )
    report = json.loads(report_path.read_text())
    assert report["gates"]["ok"]

    # Replay the recorded file: identical traffic, and an impossible
    # gate must flip the exit code.
    assert main([
        "loadgen", "--graph", str(graph_path),
        "--replay", str(schedule_path),
        "--workers", "2", "--gate-p99-ms", "0.0001",
    ]) == 1


def test_cli_loadgen_requires_a_target(fresh_registry):
    from repro.cli import main

    assert main(["loadgen", "--profile", "steady"]) == 2
