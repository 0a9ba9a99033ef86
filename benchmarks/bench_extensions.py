"""Benchmarks for the features beyond the paper's evaluation.

* **branching factor** — generalizing the paper's binary RQ-tree
  (Section 6 fixes b = 2 "for simplicity"): trade tree height against
  split granularity and measure the effect on pruning and query time;
* **updates without index repair** — a stream of arc updates applied
  to a built engine (``RQTreeEngine.apply``, which keeps the tree)
  against a fresh build of the final graph: apply time, candidate
  ratio and ``lb`` agreement.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro import RQTreeEngine, load_dataset
from repro.core.builder import build_rqtree
from repro.eval.reporting import format_table
from repro.eval.workload import single_source_workload
from repro.live.updates import apply_to_graph, normalize_updates

from conftest import write_result

ETA = 0.6


def test_branching_factor(benchmark):
    graph = load_dataset("dblp5", n=1500, seed=3)
    sources = single_source_workload(graph, 10, seed=1)

    def run():
        rows = []
        for branching in (2, 3, 4, 8):
            tree, report = build_rqtree(graph, seed=3, branching=branching)
            engine = RQTreeEngine(graph, tree)
            ratios, times = [], []
            for s in sources:
                result = engine.query(s, ETA)
                ratios.append(result.candidate_ratio)
                times.append(result.total_seconds)
            rows.append(
                (
                    branching,
                    report.height,
                    report.num_clusters,
                    statistics.fmean(ratios),
                    statistics.fmean(times),
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    write_result(
        "extension_branching",
        format_table(
            ["branching", "height", "# clusters", "mean candidate ratio",
             "mean query time (s)"],
            rows,
            title=f"Extension: RQ-tree branching factor (dblp5-like "
            f"n=1500, eta={ETA})",
        ),
    )
    heights = [r[1] for r in rows]
    # Higher branching -> shorter trees.
    assert heights == sorted(heights, reverse=True) or heights[0] >= heights[-1]
    # All branching factors answer with sane pruning.
    for row in rows:
        assert 0.0 <= row[3] <= 1.0


def test_incremental_maintenance(benchmark):
    base = load_dataset("nethept", n=800, seed=6)
    import random as _random

    rng = _random.Random(9)
    updates = []
    for _ in range(120):
        u, v = rng.randrange(800), rng.randrange(800)
        if u != v:
            updates.append(("set", u, v, rng.uniform(0.3, 0.9)))

    final = base.copy()
    apply_to_graph(final, normalize_updates(updates))
    sources = single_source_workload(final, 10, seed=2)

    def run():
        # The start-up index absorbing the update stream.
        engine = RQTreeEngine.build(base.copy(), seed=6)
        for s in sources:
            engine.query(s, ETA)  # warm the bounds cache the updates hit
        start = time.perf_counter()
        applied = engine.apply(updates)
        apply_seconds = time.perf_counter() - start

        # A fresh build of the final graph.
        start = time.perf_counter()
        fresh = RQTreeEngine.build(engine.graph.copy(), seed=6)
        build_seconds = time.perf_counter() - start

        # Answer agreement on the mutated graph (LB answers are
        # clustering-independent, so they must match exactly).
        agree = True
        ratios_kept, ratios_fresh = [], []
        for s in sources:
            r_kept = engine.query(s, ETA)
            r_fresh = fresh.query(s, ETA)
            agree &= r_kept.nodes == r_fresh.nodes
            ratios_kept.append(r_kept.candidate_ratio)
            ratios_fresh.append(r_fresh.candidate_ratio)
        return (
            applied,
            apply_seconds,
            build_seconds,
            statistics.fmean(ratios_kept),
            statistics.fmean(ratios_fresh),
            agree,
        )

    applied, apply_s, build_s, ratio_kept, ratio_fresh, agree = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )
    write_result(
        "extension_maintenance",
        format_table(
            ["metric", "value"],
            [
                ("updates applied", applied),
                ("apply time (s)", apply_s),
                ("fresh-build time (s)", build_s),
                ("candidate ratio (start-up index)", ratio_kept),
                ("candidate ratio (fresh build)", ratio_fresh),
                ("LB answers agree", agree),
            ],
            title="Extension: updates on the start-up index vs a fresh "
            f"build (nethept-like n=800, {len(updates)} arc sets, "
            f"eta={ETA})",
        ),
    )
    assert agree  # correctness is never at stake
    # The start-up index's pruning stays within reach of a fresh build.
    assert ratio_kept <= ratio_fresh + 0.25
