"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not part of the paper's evaluation, but each isolates one design
decision of the reproduction:

* **partitioner**: the balanced-minimum-cut criterion (Problem 3 /
  Theorem 6) vs balanced *random* bisection — the min-cut index must
  prune better (smaller candidate ratios);
* **flow engine**: Dinic vs Goldberg-Tarjan push-relabel on the
  candidate-generation workload — same answers, comparable times;
* **multi-source strategy**: greedy heuristic vs exact Pareto DP —
  the DP's candidate sets are never larger, the heuristic is cheaper;
* **cheap-bound short-circuit**: Theorem-5 early accept on vs off —
  identical answers, fewer max-flow solves;
* **flow witness**: rejecting a cluster on a feasible flow of value
  ``≥ -log(1 - η)`` instead of solving Algorithm 1 — identical walks,
  Algorithm 1 only where the walk stops.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro import RQTreeEngine, load_dataset
from repro.core.candidates import (
    multi_source_candidates_exact,
    multi_source_candidates_greedy,
    single_source_candidates,
)
from repro.core.outreach import outreach_upper_bound, outreach_witness
from repro.eval.reporting import format_table
from repro.eval.workload import multi_source_workload, single_source_workload

from conftest import write_result

ETA = 0.6
N = 1500


@pytest.fixture(scope="module")
def dataset():
    graph = load_dataset("dblp5", n=N, seed=9)
    return graph


def test_ablation_partitioner(dataset, benchmark):
    graph = dataset

    def run():
        engine_cut = RQTreeEngine.build(graph, seed=9, strategy="multilevel")
        engine_rand = RQTreeEngine.build(graph, seed=9, strategy="random")
        sources = single_source_workload(graph, 10, seed=1)
        ratios = {"multilevel": [], "random": []}
        for s in sources:
            ratios["multilevel"].append(
                engine_cut.query(s, ETA).candidate_ratio
            )
            ratios["random"].append(
                engine_rand.query(s, ETA).candidate_ratio
            )
        return {k: statistics.fmean(v) for k, v in ratios.items()}

    means = benchmark.pedantic(run, rounds=1, iterations=1)
    write_result(
        "ablation_partitioner",
        format_table(
            ["strategy", "mean candidate ratio"],
            sorted(means.items()),
            title=f"Ablation: bisection strategy (dblp5-like n={N}, "
            f"eta={ETA})",
        ),
    )
    # The min-cut partitioner must prune at least as well as random.
    assert means["multilevel"] <= means["random"] + 0.02


def test_ablation_flow_engine(dataset, benchmark):
    graph = dataset
    engine = RQTreeEngine.build(graph, seed=9)
    sources = single_source_workload(graph, 8, seed=2)

    def run():
        rows = []
        for engine_name in ("dinic", "push_relabel"):
            times = []
            answers = []
            for s in sources:
                start = time.perf_counter()
                result = single_source_candidates(
                    graph, engine.tree, s, ETA, engine=engine_name
                )
                times.append(time.perf_counter() - start)
                answers.append(frozenset(result.candidates))
            rows.append((engine_name, statistics.fmean(times), answers))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    write_result(
        "ablation_flow_engine",
        format_table(
            ["engine", "mean candidate-gen time (s)"],
            [(r[0], r[1]) for r in rows],
            title="Ablation: max-flow engine during candidate generation",
        ),
    )
    # Identical candidate sets regardless of the engine.
    assert rows[0][2] == rows[1][2]


def test_ablation_multisource_strategy(dataset, benchmark):
    graph = dataset
    engine = RQTreeEngine.build(graph, seed=9)
    workload = multi_source_workload(graph, 6, set_size=5, diameter=4, seed=3)

    def run():
        sizes = {"greedy": [], "exact": []}
        times = {"greedy": [], "exact": []}
        for sources in workload:
            start = time.perf_counter()
            g_result = multi_source_candidates_greedy(
                graph, engine.tree, sources, ETA
            )
            times["greedy"].append(time.perf_counter() - start)
            sizes["greedy"].append(len(g_result.candidates))

            start = time.perf_counter()
            e_result = multi_source_candidates_exact(
                graph, engine.tree, sources, ETA
            )
            times["exact"].append(time.perf_counter() - start)
            sizes["exact"].append(len(e_result.candidates))
        return sizes, times

    sizes, times = benchmark.pedantic(run, rounds=1, iterations=1)
    write_result(
        "ablation_multisource",
        format_table(
            ["strategy", "mean |candidates|", "mean time (s)"],
            [
                (k, statistics.fmean(sizes[k]), statistics.fmean(times[k]))
                for k in ("greedy", "exact")
            ],
            title=f"Ablation: multi-source candidate generation (|S|=5, "
            f"d=4, eta={ETA})",
        ),
    )
    # Problem 2 optimality: the DP never returns a larger union.
    for g_size, e_size in zip(sizes["greedy"], sizes["exact"]):
        assert e_size <= g_size


def test_ablation_cheap_bound(dataset, benchmark):
    graph = dataset
    engine = RQTreeEngine.build(graph, seed=9)
    sources = single_source_workload(graph, 10, seed=4)

    def run():
        skipped = 0
        total = 0
        for s in sources:
            for cluster in engine.tree.path_to_root(s):
                total += 1
                result = outreach_upper_bound(
                    graph, [s], cluster.members, cheap_accept_below=ETA
                )
                tight = outreach_upper_bound(graph, [s], cluster.members)
                # Soundness: the cheap bound never undercuts the tight one.
                assert result.upper_bound >= tight.upper_bound - 1e-6
                if not result.used_flow:
                    skipped += 1
                if result.upper_bound < ETA:
                    break
        return skipped, total

    skipped, total = benchmark.pedantic(run, rounds=1, iterations=1)
    write_result(
        "ablation_cheap_bound",
        format_table(
            ["metric", "value"],
            [
                ("cluster evaluations", total),
                ("flow solves skipped via Theorem-5 bound", skipped),
                ("skip rate", skipped / max(1, total)),
            ],
            title="Ablation: Theorem-5 early-accept short-circuit",
        ),
    )
    assert 0 <= skipped <= total


def test_ablation_witness(dataset, benchmark):
    graph = dataset
    engine = RQTreeEngine.build(graph, seed=9)
    sources = single_source_workload(graph, 10, seed=4)

    def run():
        evaluations = 0
        certified = 0
        solves_without = 0
        solves_with = 0
        witness_seconds = 0.0
        flow_seconds = 0.0
        for s in sources:
            for cluster in engine.tree.path_to_root(s):
                evaluations += 1
                start = time.perf_counter()
                lower = outreach_witness(graph, s, cluster.members, ETA)
                middle = time.perf_counter()
                result = outreach_upper_bound(
                    graph, [s], cluster.members, cheap_accept_below=ETA
                )
                end = time.perf_counter()
                solves_without += result.used_flow
                if lower is not None:
                    # Algorithm 1 rejects every certified cluster, with
                    # a bound no smaller than the certified one.
                    assert ETA <= lower <= result.upper_bound
                    certified += 1
                    witness_seconds += middle - start
                    flow_seconds += end - middle
                    continue
                if result.upper_bound < ETA:
                    break
            walk = single_source_candidates(graph, engine.tree, s, ETA)
            solves_with += walk.flow_calls
        return (evaluations, certified, solves_without, solves_with,
                witness_seconds, flow_seconds)

    (evaluations, certified, solves_without, solves_with,
     witness_seconds, flow_seconds) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    write_result(
        "ablation_witness",
        format_table(
            ["metric", "value"],
            [
                ("cluster evaluations", evaluations),
                ("rejections certified by the witness", certified),
                ("Algorithm-1 solves without the witness", solves_without),
                ("Algorithm-1 solves with the witness", solves_with),
                ("Algorithm-1 solves avoided", solves_without - solves_with),
                ("witness time on certified clusters (s)", witness_seconds),
                ("Algorithm-1 time on the same clusters (s)", flow_seconds),
            ],
            title=f"Ablation: flow-witness rejection (dblp5-like n={N}, "
            f"eta={ETA})",
        ),
    )
    # Every certified cluster is a solve the walk no longer needs.
    assert solves_without - solves_with == certified
