"""``knob-contract``: every ``REPRO_*`` env knob documented, and only
real knobs documented.

Migrated from ``tools/check_links.py`` (which now checks links only).
Three directions, so a knob can neither ship undocumented nor outlive
its removal in the docs:

* every ``REPRO_*`` token mentioned in any markdown doc must have a
  table row in docs/OPERATIONS.md;
* every table row must correspond to a knob something under
  ``src/``, ``tools/``, ``tests/`` or ``.github/`` actually reads;
* every knob the source reads must have a table row.
"""

import re
from pathlib import Path

from repro.analysis.findings import Finding

#: complete knob tokens only — a prose prefix like ``REPRO_CHAOS_*``
#: (trailing underscore) names a family, not a knob
KNOB_RE = re.compile(r"\bREPRO_[A-Z0-9_]*[A-Z0-9]\b")
#: a documented knob: an OPERATIONS.md table row whose first cell is
#: the backticked variable name
KNOB_ROW_RE = re.compile(r"^\|\s*`(REPRO_[A-Z0-9_]+)`")
#: where knobs are read/set by code
KNOB_SOURCE_DIRS = ("src", "tools", ".github", "tests")
KNOB_SOURCE_SUFFIXES = {".py", ".yml", ".yaml", ".sh"}
#: the living docs.  CHANGES.md is history — it may name a knob that
#: has since been removed — and is not held to the contract.
DOC_FILES = ("README.md", "DESIGN.md", "ROADMAP.md")


def _doc_paths(root):
    paths = [root / name for name in DOC_FILES if (root / name).exists()]
    paths.extend(sorted((root / "docs").glob("*.md")))
    return paths


def _first_mention(path, knob):
    """1-indexed line of the first occurrence of *knob* in *path*."""
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8", errors="ignore").splitlines(),
            start=1):
        if re.search(rf"\b{re.escape(knob)}\b", line):
            return lineno
    return 0


def source_knobs(root):
    """``knob -> (rel path, line)`` for every REPRO_* token read by code."""
    knobs = {}
    for name in KNOB_SOURCE_DIRS:
        base = root / name
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in KNOB_SOURCE_SUFFIXES or not path.is_file():
                continue
            text = path.read_text(encoding="utf-8", errors="ignore")
            for lineno, line in enumerate(text.splitlines(), start=1):
                for knob in KNOB_RE.findall(line):
                    knobs.setdefault(
                        knob, (path.relative_to(root).as_posix(), lineno))
    return knobs


def check(modules, repo_root):
    root = Path(repo_root)
    findings = []
    operations = root / "docs" / "OPERATIONS.md"
    if not operations.exists():
        return [Finding(rule="knob-contract", path="docs/OPERATIONS.md",
                        line=0, message="knob table file does not exist")]
    rows = {}
    for lineno, line in enumerate(
            operations.read_text(encoding="utf-8").splitlines(), start=1):
        match = KNOB_ROW_RE.match(line)
        if match:
            rows.setdefault(match.group(1), lineno)
    mentioned = {}
    for path in _doc_paths(root):
        rel = path.relative_to(root).as_posix()
        for knob in KNOB_RE.findall(path.read_text(encoding="utf-8")):
            mentioned.setdefault(knob, (rel, _first_mention(path, knob)))
    in_source = source_knobs(root)

    for knob in sorted(set(mentioned) - set(rows)):
        rel, line = mentioned[knob]
        findings.append(Finding(
            rule="knob-contract", path=rel, line=line,
            message=(f"{knob} is mentioned here but has no table row in"
                     " docs/OPERATIONS.md"),
            context={"knob": knob, "direction": "undocumented-mention"}))
    for knob in sorted(set(rows) - set(in_source)):
        findings.append(Finding(
            rule="knob-contract", path="docs/OPERATIONS.md",
            line=rows[knob],
            message=(f"{knob} is documented but nothing under"
                     " src/tools/tests/.github reads it"),
            context={"knob": knob, "direction": "stale-row"}))
    for knob in sorted(set(in_source) - set(rows)):
        rel, line = in_source[knob]
        findings.append(Finding(
            rule="knob-contract", path=rel, line=line,
            message=(f"{knob} is read here but has no table row in"
                     " docs/OPERATIONS.md"),
            context={"knob": knob, "direction": "undocumented-read"}))
    return findings
