"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py          # about a minute and a half

0. ``BENCHMARK.json`` lists the workloads and metrics ``run.py`` reports.
1. The same seed gives an identical op stream and fingerprint.
2. Another seed gives different nodes but the same count per class.
3. Removing one node from one answer makes the oracle fail the run.
4. The served_churn replay ends at the server's ``/healthz`` epoch.
5. Per-layer counts repeat exactly across two traced runs of
   ``paper_lb`` and ``sampled_verify`` (with different hash seeds).

Exits non-zero if any check fails.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import common  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

PREFIX = 1500


def test_benchmark_json_matches_run() -> None:
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} <= set(run.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in doc[key]}
        assert listed == table, key


def _streams(seed: int, n: int = 8000) -> dict:
    lb_graph = workloads.biomine_graph(4000)
    graph = workloads.biomine_graph(n)
    return {
        "paper_lb": (lb_graph, workloads.paper_lb_stream(lb_graph, seed)),
        "sampled_verify": (graph, workloads.sampled_stream(graph, seed)),
        "served_read": (graph, workloads.served_stream(graph, seed, 3000, churn=False)),
        "served_churn": (graph, workloads.served_stream(graph, seed, 3000, churn=True)),
    }


def _sources(ops) -> set:
    return {tuple(op["sources"]) for op in ops if "sources" in op}


def test_streams() -> None:
    first, again, other = _streams(5), _streams(5), _streams(6)
    for name in first:
        graph, (warm, timed) = first[name]
        graph2, (warm2, timed2) = again[name]
        assert workloads.fingerprint(graph, warm + timed) == \
            workloads.fingerprint(graph2, warm2 + timed2), name
        graph3, (warm3, timed3) = other[name]
        assert workloads.fingerprint(graph, warm + timed) != \
            workloads.fingerprint(graph3, warm3 + timed3), name
        assert _sources(timed[:PREFIX]) != _sources(timed3[:PREFIX]), name
        assert workloads.class_counts(timed, PREFIX) == \
            workloads.class_counts(timed3, PREFIX), name
        assert set(op["sources"][0] for op in warm).isdisjoint(
            op["sources"][0] for op in timed[:PREFIX] if "sources" in op), name


@contextlib.contextmanager
def _small(workload: str, nodes: int):
    saved = (workloads.WORKLOADS[workload]["graph_nodes"], common.SETUP_REPEATS)
    workloads.WORKLOADS[workload]["graph_nodes"] = nodes
    common.SETUP_REPEATS = 1
    try:
        yield
    finally:
        workloads.WORKLOADS[workload]["graph_nodes"], common.SETUP_REPEATS = saved


def _main_quiet(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(argv)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def test_oracle_catches_a_dropped_node() -> None:
    import inproc

    original = inproc._query
    warmup = workloads.WORKLOADS["paper_lb"]["warmup_ops"]
    calls = []
    dropped = []

    def lossy(engine, op):
        result = original(engine, op)
        calls.append(op)
        extra = sorted(set(result.nodes) - set(op["sources"]))
        if extra and not dropped and len(calls) > warmup:
            dropped.append(extra[0])
            return dataclasses.replace(result, nodes=set(result.nodes) - {extra[0]})
        return result

    argv = ["--workload", "paper_lb", "--seed", "3", "--seconds", "1"]
    with _small("paper_lb", 2000):
        code, clean = _main_quiet(argv)
        assert code == 0 and clean["correct"], clean
        inproc._query = lossy
        try:
            code, report = _main_quiet(argv)
        finally:
            inproc._query = original
    assert dropped, "no answer had a non-source node to drop"
    assert code == 1 and report["correct"] is False, report


def test_churn_replay_matches_healthz_epoch() -> None:
    import served

    with _small("served_churn", 2000):
        report = served.run("served_churn", 4, 3.0)
    updates = len(report["update_ms"])
    assert not report["mismatches"], report["mismatches"][:3]
    assert updates > 0 and report["final_epoch"] == updates, \
        (updates, report["final_epoch"])


def _traced_counts(workload: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "10", "--trace", "1"],
        capture_output=True, text=True, env=env, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    timed = {"s", "ms"}
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] not in timed and k != "trace.overhead_ratio"}


def test_traced_counts_repeat() -> None:
    for workload in ("paper_lb", "sampled_verify"):
        first = _traced_counts(workload, "1")
        second = _traced_counts(workload, "2")
        assert first == second, {k: (first[k], second[k]) for k in first
                                 if first[k] != second[k]}
        assert first["trace.ops"] == common.TRACE_OPS[workload]


def main() -> int:
    failures = 0
    for name, test in list(globals().items()):
        if not name.startswith("test_"):
            continue
        try:
            test()
        except Exception as error:  # report every failing check
            failures += 1
            print(f"FAIL {name}: {type(error).__name__}: {error}")
        else:
            print(f"ok   {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
