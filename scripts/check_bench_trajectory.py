#!/usr/bin/env python
"""Fail CI when a quick-mode benchmark regresses against its baseline.

Usage::

    python scripts/check_bench_trajectory.py BENCH_shards.json [...]

Each named file (a freshly-written quick-mode ``BENCH_*.json`` at the
repo root) is compared against the committed baseline of the same name
under ``benchmarks/baselines/``.  Every ``qps`` value in the sweep
must be at least ``1 - TOLERANCE`` of the baseline's value for the
same configuration row.  Quick-mode numbers on shared runners are
noisy, hence the wide 30% band: this is a trajectory check — it
catches "the data plane got 2x slower", not 5% jitter.

Baselines carry a host fingerprint; a cpu-count mismatch is reported
but still enforced (the quick workloads are small enough that the
band absorbs honest host variance).

Rows may also carry *ceiling* metrics — today ``p99_ms`` (tail
latency, allowed up to 2x baseline: quick-mode p99 on a shared 1-core
runner is the noisiest number we gate on) and ``degraded_rate``
(allowed baseline + 0.15 absolute: a rate is bounded, so a relative
band would explode around a baseline near zero).  Ceilings are only
enforced for ``BENCH_slo.json``: older benches also report p99 but
were never gated on it, and retroactively tightening their contract
belongs in its own change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_DIR = REPO_ROOT / "benchmarks" / "baselines"
TOLERANCE = 0.30
METRIC = "qps"
#: Tail latency may double before we call it a regression.
P99_TOLERANCE = 1.0
#: Degraded-answer rate may rise this much (absolute) over baseline.
DEGRADED_TOLERANCE = 0.15
#: Fields identifying a sweep row across benchmark schemas.
ROW_KEYS = ("workload", "workers", "shards", "connections", "method")


def _row_id(row: dict):
    for key in ROW_KEYS:
        if key in row:
            return key, row[key]
    return None


def check(current_path: Path, baseline_path: Path) -> list:
    current = json.loads(current_path.read_text(encoding="utf-8"))
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    problems = []

    if not current.get("quick_mode", False):
        problems.append(
            f"{current_path.name}: not a quick-mode run; the committed "
            "baseline is quick-mode — regenerate with BENCH_QUICK=1"
        )
        return problems

    base_host = baseline.get("host", {})
    cur_host = current.get("host", {})
    if base_host.get("cpu_count") != cur_host.get("cpu_count"):
        print(
            f"note: {current_path.name} measured on "
            f"{cur_host.get('cpu_count')} cpus, baseline on "
            f"{base_host.get('cpu_count')}; the {TOLERANCE:.0%} band "
            "still applies"
        )

    base_rows = {_row_id(row): row for row in baseline.get("sweep", [])}
    for row in current.get("sweep", []):
        row_id = _row_id(row)
        base = base_rows.get(row_id)
        if base is None or METRIC not in row or METRIC not in base:
            continue
        key, value = row_id
        floor = base[METRIC] * (1.0 - TOLERANCE)
        if row[METRIC] < floor:
            problems.append(
                f"{current_path.name}: {METRIC} at {key}={value} is "
                f"{row[METRIC]:.2f}, below {floor:.2f} "
                f"({TOLERANCE:.0%} under baseline {base[METRIC]:.2f})"
            )
        if current_path.name != "BENCH_slo.json":
            continue
        if "p99_ms" in row and "p99_ms" in base:
            ceiling = base["p99_ms"] * (1.0 + P99_TOLERANCE)
            if row["p99_ms"] > ceiling:
                problems.append(
                    f"{current_path.name}: p99_ms at {key}={value} is "
                    f"{row['p99_ms']:.2f}, above {ceiling:.2f} "
                    f"(baseline {base['p99_ms']:.2f} + "
                    f"{P99_TOLERANCE:.0%})"
                )
        if "degraded_rate" in row and "degraded_rate" in base:
            ceiling = base["degraded_rate"] + DEGRADED_TOLERANCE
            if row["degraded_rate"] > ceiling:
                problems.append(
                    f"{current_path.name}: degraded_rate at "
                    f"{key}={value} is {row['degraded_rate']:.3f}, "
                    f"above {ceiling:.3f} (baseline "
                    f"{base['degraded_rate']:.3f} + "
                    f"{DEGRADED_TOLERANCE})"
                )
    return problems


def main(argv: list) -> int:
    if not argv:
        print("usage: check_bench_trajectory.py BENCH_*.json ...",
              file=sys.stderr)
        return 2
    failures = []
    for name in argv:
        current_path = REPO_ROOT / name
        baseline_path = BASELINE_DIR / Path(name).name
        if not current_path.exists():
            failures.append(f"{name}: missing (benchmark did not run?)")
            continue
        if not baseline_path.exists():
            print(f"note: no baseline for {name}; skipping")
            continue
        problems = check(current_path, baseline_path)
        if problems:
            failures.extend(problems)
        else:
            print(f"ok: {name} within {TOLERANCE:.0%} of baseline")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
