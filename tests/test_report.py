"""The reproduction report's three lists stay in step.

``scripts/run_all_experiments.py`` stitches
``benchmarks/results/REPORT.md`` from the tables under
``benchmarks/results/``, in the order of its ``REPORT_ORDER``.  A claim
withdrawn from one of the three lists — the order, the result files,
the report's sections — must be withdrawn from all of them, or the
report shows a "missing" section or keeps a table nobody regenerates.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"


def _report_order():
    path = REPO_ROOT / "scripts" / "run_all_experiments.py"
    spec = importlib.util.spec_from_file_location("run_all_experiments", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.REPORT_ORDER


def test_report_order_results_and_sections_agree():
    order = _report_order()
    stems = [stem for _, stem in order]
    titles = [title for title, _ in order]
    result_files = sorted(path.stem for path in RESULTS_DIR.glob("*.txt"))
    report = (RESULTS_DIR / "REPORT.md").read_text(encoding="utf-8")
    headings = [
        line[len("## "):] for line in report.splitlines()
        if line.startswith("## ")
    ]
    assert len(set(stems)) == len(stems), "REPORT_ORDER repeats a stem"
    assert sorted(stems) == result_files
    assert headings == titles
