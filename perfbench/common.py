"""Small helpers shared by the workload modules."""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: ops a traced phase runs per workload (fixed, so its counts repeat).
TRACE_OPS = {"paper_lb": 1500, "sampled_verify": 450,
             "served_read": 3000, "served_churn": 600}

#: certified_recall is tallied over this many leading timed ops, so it
#: repeats exactly for a seed whatever the machine's speed.
RECALL_PREFIX = 600

#: Set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 3


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated *q*-quantile (0 <= q <= 1) of *values*."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tails(name: str, values_ms: Sequence[float]) -> Dict[str, tuple]:
    """Ungated tail lines (p95, p99 and the sample count) of *values_ms*."""
    return {f"{name}_p95_ms": (percentile(values_ms, 0.95), "ms"),
            f"{name}_p99_ms": (percentile(values_ms, 0.99), "ms"),
            f"{name}_count": (len(values_ms), "count")}


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set (VmHWM) of a process in MB; 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def descendants(pid: int) -> List[int]:
    """Every live process below *pid* (by parent links in /proc)."""
    parent_of: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        parent_of[int(entry)] = int(fields[1])
    found, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        children = [p for p, pp in parent_of.items() if pp == current]
        found.extend(children)
        frontier.extend(children)
    return found


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def out_path(name: str) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR / name
