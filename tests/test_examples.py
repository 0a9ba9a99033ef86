"""Smoke tests: every example script runs to completion.

Examples are user-facing documentation; a broken one is a broken
deliverable.  Each is executed as a subprocess with a generous timeout
and must exit 0 with non-empty output.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"

EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def _readme_examples():
    """The scripts in README's "Runnable examples" table."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("Runnable examples", 1)[1].split("\n## ", 1)[0]
    return sorted(re.findall(r"^\| `([\w.-]+\.py)` \|", section, re.MULTILINE))


def test_examples_discovered():
    # Every script is documented and every documented script exists.
    assert EXAMPLES
    assert _readme_examples() == EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script):
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip(), f"{script} produced no output"
