"""Run the full reproduction and assemble a consolidated report.

Executes the test-suite and every benchmark, then stitches the
rendered tables under ``benchmarks/results/`` into a single
``benchmarks/results/REPORT.md`` in the paper's presentation order,
prefixed with environment metadata.  Intended as the one-command
"reproduce everything" entry point:

    python scripts/run_all_experiments.py [--skip-tests]

``--assemble-only`` re-stitches REPORT.md from whatever tables are
already on disk (e.g. after running a single benchmark by hand)
without re-executing the suite.
"""

from __future__ import annotations

import argparse
import platform
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"

#: Paper-order report layout: (section title, results file stem).
REPORT_ORDER = [
    ("Table 1 (empirical) — complexity / boundary sizes", "table1_complexity"),
    ("Figure 3 — arc-probability cdfs", "figure3_cdf"),
    ("Table 4 — RQ-tree vs RHT-sampling", "table4_rht"),
    ("Table 5 — index statistics", "table5_index"),
    ("Table 6 — precision / recall / query time", "table6_quality"),
    ("Figure 4 — pruning power", "figure4_pruning"),
    ("Table 7 — multi-source queries", "table7_multisource"),
    ("Table 8 — scalability", "table8_scalability"),
    ("Figure 5 — influence maximization", "figure5_influence"),
    ("Ablation — partitioner", "ablation_partitioner"),
    ("Ablation — flow engine", "ablation_flow_engine"),
    ("Ablation — multi-source strategy", "ablation_multisource"),
    ("Ablation — Theorem-5 early accept", "ablation_cheap_bound"),
    ("Ablation — flow-witness rejection", "ablation_witness"),
    ("Ablation — LB without the index", "ablation_lb_without_index"),
    ("Extension — branching factor", "extension_branching"),
    ("Extension — updates without index repair", "extension_maintenance"),
    ("Monte-Carlo estimator comparison (after Fishman [13])",
     "estimator_comparison"),
    ("Distance-constrained queries", "hop_constrained"),
    ("Verification ladder — lb / lb+ / mc", "verification_ladder"),
    ("Engine hardening — graceful degradation", "degradation"),
    ("Serving layer — sharded scatter-gather", "shards"),
    ("Serving layer — shard transport", "transport"),
    ("Self-healing — supervisor under faults", "supervisor"),
    ("Estimator portfolio — cost-based planner", "estimator_portfolio"),
    ("Live updates — epoch snapshots under churn", "live"),
    ("Traffic harness — SLO load run", "slo"),
]


def run(command: list, description: str) -> float:
    """Run a subprocess, echoing progress; return elapsed seconds."""
    print(f"==> {description}: {' '.join(command)}")
    start = time.perf_counter()
    completed = subprocess.run(command, cwd=REPO_ROOT)
    elapsed = time.perf_counter() - start
    if completed.returncode != 0:
        print(f"FAILED ({description}) after {elapsed:.1f}s", file=sys.stderr)
        sys.exit(completed.returncode)
    print(f"    done in {elapsed:.1f}s")
    return elapsed


def assemble_report(
    test_seconds: float, bench_seconds: float
) -> Path:
    """Concatenate the per-experiment outputs into REPORT.md."""
    lines = [
        "# Reproduction report",
        "",
        f"- python {platform.python_version()} on {platform.platform()}",
        f"- test-suite time: {test_seconds:.1f}s"
        if test_seconds
        else "- test-suite: skipped",
        f"- benchmark time: {bench_seconds:.1f}s"
        if bench_seconds
        else "- benchmarks: assembled from existing results (not rerun)",
        "",
        "Paper-vs-measured commentary lives in EXPERIMENTS.md; the raw",
        "regenerated tables follow.",
        "",
    ]
    for title, stem in REPORT_ORDER:
        path = RESULTS_DIR / f"{stem}.txt"
        lines.append(f"## {title}")
        lines.append("")
        if path.exists():
            lines.append("```")
            lines.append(path.read_text(encoding="utf-8").rstrip())
            lines.append("```")
        else:
            lines.append("*(missing — benchmark did not run)*")
        lines.append("")
    report = RESULTS_DIR / "REPORT.md"
    report.write_text("\n".join(lines), encoding="utf-8")
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--skip-tests", action="store_true",
        help="run only the benchmarks",
    )
    parser.add_argument(
        "--assemble-only", action="store_true",
        help="re-stitch REPORT.md from the tables already under "
             "benchmarks/results/ without rerunning anything",
    )
    args = parser.parse_args()

    test_seconds = 0.0
    bench_seconds = 0.0
    if not args.assemble_only:
        if not args.skip_tests:
            test_seconds = run(
                [sys.executable, "-m", "pytest", "tests/", "-q"],
                "test suite",
            )
        bench_seconds = run(
            [
                sys.executable, "-m", "pytest", "benchmarks/",
                "--benchmark-only", "-q",
            ],
            "benchmarks",
        )
    report = assemble_report(test_seconds, bench_seconds)
    print(f"report written to {report}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
