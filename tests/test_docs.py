"""Executable documentation: every fenced Python block must run.

Docs rot silently — examples keep compiling in the reader's head long
after the API moved on.  This suite extracts every ```python fence
from README.md and docs/*.md and executes it, top to bottom, in one
namespace per file (so later blocks can use names earlier blocks
defined, exactly as a reader would).  Blocks that are genuinely not
Python (grammar sketches, pseudo-code) must use a different fence
language (```text); that is a documentation convention this test
enforces by construction.

Also checks that every relative Markdown link in the prose, and every
repository file the prose or a docstring names in backticks, points at
a file that exists, so renames and deletions can't leave dead
references behind.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Files whose ```python blocks must execute green.
EXECUTABLE_DOCS = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")]
)

#: Files whose relative links must resolve (superset of the above).
LINKED_DOCS = sorted(
    EXECUTABLE_DOCS
    + [REPO_ROOT / "DESIGN.md", REPO_ROOT / "EXPERIMENTS.md"]
)

_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)
_LINK = re.compile(r"\[[^\]]+\]\(([^)#\s]+)(?:#[^)]*)?\)")

#: A code span that is wholly a repository file path, optionally
#: followed by a ``::test`` node id or a ``:line`` reference.
_PATH_SPAN = re.compile(
    r"([\w.-]+(?:/[\w.-]+)*\.(?:py|json|md|sh|txt|yml))"
    r"(?:::[\w\[\].-]+|:\d+(?:-\d+)?)?"
)
_ANY_FENCE = re.compile(r"```.*?```", re.DOTALL)
_CODE_SPAN = re.compile(r"`([^`\n]+)`")
_RST_LITERAL = re.compile(r"``(.+?)``", re.DOTALL)

#: Where a named path with a slash may be rooted ("" is the repo root).
_PATH_ROOTS = (
    "", "src", "src/repro", "benchmarks", "tests", "scripts", "examples",
    "docs", "perfbench",
)

#: Trees whose docstrings must name only existing files.
_DOCSTRING_TREES = ("src", "benchmarks", "scripts", "examples")


def _python_blocks(path: Path):
    return _FENCE.findall(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "doc", EXECUTABLE_DOCS, ids=[p.name for p in EXECUTABLE_DOCS]
)
def test_python_blocks_execute(doc):
    blocks = _python_blocks(doc)
    if not blocks:
        pytest.skip(f"{doc.name} has no python blocks")
    namespace = {"__name__": f"doc_{doc.stem}"}
    for index, block in enumerate(blocks):
        try:
            exec(compile(block, f"{doc.name}[block {index}]", "exec"),
                 namespace)
        except Exception as error:  # noqa: BLE001 - reported with context
            pytest.fail(
                f"{doc.name} python block #{index} failed "
                f"({type(error).__name__}: {error}):\n{block}"
            )


@pytest.mark.parametrize(
    "doc", LINKED_DOCS, ids=[p.name for p in LINKED_DOCS]
)
def test_relative_links_resolve(doc):
    text = doc.read_text(encoding="utf-8")
    dead = []
    for target in _LINK.findall(text):
        if "://" in target or target.startswith("mailto:"):
            continue
        if not (doc.parent / target).exists():
            dead.append(target)
    assert not dead, f"{doc.name} has dead relative links: {dead}"


@functools.lru_cache(maxsize=None)
def _repo_file_names():
    names = {path.name for path in REPO_ROOT.iterdir() if path.is_file()}
    for root in _PATH_ROOTS[1:]:
        names.update(
            path.name for path in (REPO_ROOT / root).rglob("*")
            if path.is_file()
        )
    return frozenset(names)


def _missing_paths(spans):
    """The repository paths named by *spans* that name no file.

    A path with a slash may be rooted at any of :data:`_PATH_ROOTS`; a
    bare file name must exist somewhere in those trees.
    """
    missing = []
    for span in spans:
        match = _PATH_SPAN.fullmatch(span.strip())
        if match is None:
            continue
        path = match.group(1)
        if "/" in path:
            found = any(
                (REPO_ROOT / root / path).is_file() for root in _PATH_ROOTS
            )
        else:
            found = path in _repo_file_names()
        if not found:
            missing.append(path)
    return missing


def test_backticked_doc_paths_exist():
    dead = {}
    for doc in LINKED_DOCS:
        prose = _ANY_FENCE.sub("", doc.read_text(encoding="utf-8"))
        missing = _missing_paths(_CODE_SPAN.findall(prose))
        if missing:
            dead[doc.name] = missing
    assert not dead, f"docs name files that do not exist: {dead}"


def _docstrings(source: Path):
    tree = ast.parse(source.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            docstring = ast.get_docstring(node, clean=False)
            if docstring:
                yield docstring


def test_docstring_paths_exist():
    dead = {}
    for tree in _DOCSTRING_TREES:
        for source in sorted((REPO_ROOT / tree).rglob("*.py")):
            missing = [
                path
                for docstring in _docstrings(source)
                for path in _missing_paths(_RST_LITERAL.findall(docstring))
            ]
            if missing:
                dead[str(source.relative_to(REPO_ROOT))] = missing
    assert not dead, f"docstrings name files that do not exist: {dead}"
