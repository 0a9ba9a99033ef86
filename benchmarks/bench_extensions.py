"""Benchmarks for the features beyond the paper's evaluation.

* **branching factor** — generalizing the paper's binary RQ-tree
  (Section 6 fixes b = 2 "for simplicity"): trade tree height against
  split granularity and measure the effect on pruning and query time;
* **incremental maintenance** — query quality and cost of the dynamic
  engine across a stream of arc updates, versus rebuild-from-scratch.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro import (
    DynamicRQTreeEngine,
    RQTreeEngine,
    load_dataset,
)
from repro.core.builder import build_rqtree
from repro.eval.reporting import format_table
from repro.eval.workload import single_source_workload

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
    updates = []
    import random as _random

    rng = _random.Random(9)
    for _ in range(120):
        u, v = rng.randrange(800), rng.randrange(800)
        if u != v:
            updates.append((u, v, rng.uniform(0.3, 0.9)))

    def run():
        # Dynamic engine absorbing the update stream.
        graph_dyn = base.copy()
        dyn = DynamicRQTreeEngine(graph_dyn, damage_threshold=0.2, seed=6)
        start = time.perf_counter()
        for u, v, p in updates:
            dyn.add_arc(u, v, p)
        maintain_seconds = time.perf_counter() - start

        # Static rebuild per batch (the naive alternative): one full
        # rebuild after the stream.
        graph_static = base.copy()
        for u, v, p in updates:
            graph_static.add_arc(u, v, p)
        start = time.perf_counter()
        static = RQTreeEngine.build(graph_static, seed=6)
        rebuild_seconds = time.perf_counter() - start

        # Answer agreement on the mutated graph (LB answers are
        # clustering-independent, so they must match exactly).
        agree = True
        ratios_dyn, ratios_static = [], []
        for s in single_source_workload(graph_static, 10, seed=2):
            r_dyn = dyn.query(s, ETA)
            r_static = static.query(s, ETA)
            agree &= r_dyn.nodes == r_static.nodes
            ratios_dyn.append(r_dyn.candidate_ratio)
            ratios_static.append(r_static.candidate_ratio)
        return (
            maintain_seconds,
            rebuild_seconds,
            dyn.stats.subtree_rebuilds,
            statistics.fmean(ratios_dyn),
            statistics.fmean(ratios_static),
            agree,
        )

    (maintain_s, rebuild_s, rebuilds, ratio_dyn, ratio_static, agree) = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )
    write_result(
        "extension_maintenance",
        format_table(
            ["metric", "value"],
            [
                ("updates applied", 120),
                ("maintenance time (s)", maintain_s),
                ("full-rebuild time (s)", rebuild_s),
                ("subtree rebuilds triggered", rebuilds),
                ("candidate ratio (dynamic)", ratio_dyn),
                ("candidate ratio (fresh rebuild)", ratio_static),
                ("LB answers agree", agree),
            ],
            title="Extension: incremental maintenance vs full rebuild "
            "(nethept-like n=800, 120 arc insertions)",
        ),
    )
    assert agree  # correctness is never at stake
    # The dynamic index's pruning stays within reach of a fresh build.
    assert ratio_dyn <= ratio_static + 0.25
