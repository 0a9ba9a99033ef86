"""Shared-memory CSR fabric: lifecycle, leak, and parity tests.

The contract under test (see :mod:`repro.shard.shm`):

* a clean engine shutdown unlinks every segment it published — no
  ``/dev/shm`` residue;
* a ``SIGKILL``-ed *worker* never takes a segment with it (the creator
  still owns it) and never leaks one either (the creator's close
  unlinks);
* a ``SIGKILL``-ed *gateway* (the creator itself) leaks nothing: the
  orphaned workers notice the dead parent and exit, at which point the
  shared resource tracker reaps every registered segment;
* both transports produce bit-identical answers at every shard count.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.graph.generators import uncertain_gnp
from repro.shard import shm
from repro.shard.engine import ShardedRQTreeEngine
from repro.shard.plan import build_shard_plan
from repro.shard.runtime import ShardRuntime, build_shard_payload

SHM_DIR = "/dev/shm"

pytestmark = pytest.mark.skipif(
    not (shm.shm_available() and os.path.isdir(SHM_DIR)),
    reason="POSIX shared memory not available",
)


def _shm_entries() -> set:
    return {name for name in os.listdir(SHM_DIR) if name.startswith("psm_")}


def _wait_until(predicate, timeout: float = 20.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.1)
    return predicate()


@pytest.fixture(scope="module")
def graph():
    return uncertain_gnp(200, 4.0 / 200, seed=3)


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
def test_registry_refcount_protocol():
    payload = {"a": np.arange(10, dtype=np.int64)}
    meta = shm.registry.publish(payload)
    name = meta["name"]
    assert shm.registry.refcount(name) == 1
    assert name in shm.registry.active()
    shm.registry.retain(name)
    assert shm.registry.refcount(name) == 2
    assert shm.registry.release(name) is False  # one owner remains
    assert os.path.exists(os.path.join(SHM_DIR, name))
    assert shm.registry.release(name) is True   # last owner unlinks
    assert not os.path.exists(os.path.join(SHM_DIR, name))
    assert shm.registry.release(name) is False  # idempotent
    with pytest.raises(KeyError):
        shm.registry.retain(name)


def test_attach_views_are_zero_copy_and_read_only(graph):
    from repro.accel.csr import csr_snapshot

    csr = csr_snapshot(graph)
    meta = shm.publish_csr(csr, list(range(graph.num_nodes)))
    try:
        arrays, global_ids = shm.attach_csr(meta)
        for field in ("indptr", "indices", "probs", "rev_indptr"):
            view = arrays[field]
            assert not view.flags.writeable
            assert not view.flags.owndata  # a view, not a copy
            np.testing.assert_array_equal(view, getattr(csr, field))
        with pytest.raises((ValueError, RuntimeError)):
            arrays["probs"][0] = 0.5
        assert list(global_ids) == list(range(graph.num_nodes))
    finally:
        shm.registry.release(meta["name"])


def test_shm_payload_rebuilds_identical_runtime(graph):
    plan = build_shard_plan(graph, 3, seed=7)
    for shard_id in range(plan.num_shards):
        pickled = build_shard_payload(
            graph, plan, shard_id, seed=7, transport="pickle"
        )
        shared = build_shard_payload(
            graph, plan, shard_id, seed=7, transport="shm"
        )
        try:
            a = ShardRuntime(pickled)
            b = ShardRuntime(shared)
            request = {"sources": [plan.shard_nodes[shard_id][0]],
                       "eta": 0.35}
            ra, rb = a.handle(request), b.handle(request)
            assert ra["kept"] == rb["kept"]
            assert ra["candidates"] == rb["candidates"]
            assert a.tree_height == b.tree_height
        finally:
            shm.registry.release(shared["shm"]["name"])


# ----------------------------------------------------------------------
# Transport parity through the full engine, across shard counts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_lb_bit_identical_across_transports_and_shards(graph, shards):
    # lb never reaches a shard; lb+ is the deterministic method that
    # reads what each transport rebuilt.
    results = {}
    for transport in ("pickle", "shm"):
        engine = ShardedRQTreeEngine.build(
            graph, shards=shards, seed=7, mode="inline",
            transport=transport,
        )
        try:
            results[transport] = [
                (
                    engine.query([s], eta, method="lb").nodes,
                    engine.query([s], eta, method="lb+").nodes,
                    engine.query([s], eta, method="lb+").statuses,
                )
                for s, eta in ((0, 0.4), (5, 0.25), (17, 0.6))
            ]
        finally:
            engine.close()
    assert results["pickle"] == results["shm"]
    assert not _shm_entries() & set(shm.registry.active())


def test_mc_bit_identical_across_transports(graph):
    results = {}
    for transport in ("pickle", "shm"):
        engine = ShardedRQTreeEngine.build(
            graph, shards=2, seed=7, mode="inline", transport=transport,
        )
        try:
            results[transport] = engine.query(
                [1], 0.3, method="mc", num_samples=400, seed=11
            ).nodes
        finally:
            engine.close()
    assert results["pickle"] == results["shm"]


# ----------------------------------------------------------------------
# Lifecycle: clean shutdown
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["inline", "process"])
def test_segments_unlinked_after_clean_shutdown(graph, mode):
    before = _shm_entries()
    engine = ShardedRQTreeEngine.build(
        graph, shards=2, seed=7, mode=mode, transport="shm"
    )
    assert len(engine._segments) == 2
    during = _shm_entries() - before
    assert len(during) == 2
    engine.close()
    assert _shm_entries() & during == set()
    engine.close()  # idempotent


def test_build_failure_releases_segments(graph, monkeypatch):
    from repro.shard import engine as engine_module

    before = _shm_entries()

    def explode(payload):
        raise RuntimeError("boom")

    monkeypatch.setattr(engine_module, "InlineShardClient", explode)
    with pytest.raises(RuntimeError, match="boom"):
        ShardedRQTreeEngine.build(
            graph, shards=2, seed=7, mode="inline", transport="shm"
        )
    assert _shm_entries() - before == set()


# ----------------------------------------------------------------------
# Lifecycle: SIGKILLed shard worker
# ----------------------------------------------------------------------
def test_sigkilled_worker_leaks_nothing(graph):
    before = _shm_entries()
    engine = ShardedRQTreeEngine.build(
        graph, shards=2, seed=7, mode="process", transport="shm"
    )
    try:
        victim = engine._clients[0]._process
        os.kill(victim.pid, signal.SIGKILL)
        assert _wait_until(lambda: not victim.is_alive())
        # The segment must survive its worker: the creator owns it.
        assert len(_shm_entries() - before) == 2
        # And the engine still answers (degraded, never wrong)...
        result = engine.query([0], 0.4, method="lb+")
        assert result.degraded
        # ...while lb, which asks no shard, is not degraded at all.
        lb = engine.query([0], 0.4, method="lb")
        assert not lb.degraded
        assert set(lb.nodes) <= set(result.nodes)
    finally:
        engine.close()
    assert _shm_entries() - before == set()


# ----------------------------------------------------------------------
# Lifecycle: SIGKILLed gateway (the segment creator itself)
# ----------------------------------------------------------------------
_GATEWAY_SCRIPT = """
import time
from repro.graph.generators import uncertain_gnp
from repro.shard.engine import ShardedRQTreeEngine

if __name__ == "__main__":  # spawn re-imports this module
    graph = uncertain_gnp(120, 4.0 / 120, seed=3)
    engine = ShardedRQTreeEngine.build(
        graph, shards=2, seed=7, mode="process", transport="shm"
    )
    workers = [c._process.pid for c in engine._clients]
    print("READY", ",".join(engine._segments),
          ",".join(map(str, workers)), flush=True)
    time.sleep(120)  # killed long before this expires
"""


def test_sigkilled_gateway_leaks_nothing(tmp_path):
    script = tmp_path / "gateway.py"
    script.write_text(_GATEWAY_SCRIPT)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")])
    )
    process = subprocess.Popen(
        [sys.executable, str(script)],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        line = process.stdout.readline().split()
        assert line[0] == "READY"
        segments = line[1].split(",")
        worker_pids = [int(pid) for pid in line[2].split(",")]
        for name in segments:
            assert os.path.exists(os.path.join(SHM_DIR, name))
        # Hard-kill the creator: no atexit, no unlink hooks run.
        os.kill(process.pid, signal.SIGKILL)
        process.wait(timeout=10)

        def workers_gone():
            for pid in worker_pids:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    continue
                return False
            return True

        # Orphaned workers notice the dead parent (~1s poll) and exit;
        # the shared resource tracker then reaps the segments.
        assert _wait_until(workers_gone, timeout=30.0), (
            "orphaned shard workers did not exit"
        )
        assert _wait_until(
            lambda: not any(
                os.path.exists(os.path.join(SHM_DIR, name))
                for name in segments
            ),
            timeout=30.0,
        ), "resource tracker did not reap leaked segments"
    finally:
        if process.poll() is None:  # pragma: no cover - cleanup path
            process.kill()
        process.stdout.close()


# ----------------------------------------------------------------------
# Service integration: transport reaches the metrics snapshot
# ----------------------------------------------------------------------
def test_service_reports_shard_transport(graph):
    from repro.core.engine import RQTreeEngine
    from repro.service.server import ReliabilityService

    engine = RQTreeEngine.build(graph, seed=1)
    service = ReliabilityService(
        engine, workers=1, shards=2, shard_mode="inline",
        shard_transport="shm",
    )
    with service:
        snapshot = service.metrics_snapshot()
        assert snapshot["service"]["shard_transport"] == "shm"
        result = service.query([0], 0.4, timeout=60)
        assert not result.degraded
    assert shm.registry.active() == []
