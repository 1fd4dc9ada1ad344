#!/usr/bin/env python
"""Docs link checker: fail CI if docs cite paths that no longer exist.

Scans ``docs/*.md`` plus README.md, DESIGN.md and EXPERIMENTS.md for

* repo paths — any backtick-quoted or markdown-linked reference that
  looks like ``src/repro/...``, ``repro/...``, ``tests/...``,
  ``docs/...``, ``examples/...``, ``benchmarks/...``, ``bench/...`` or
  ``tools/...`` —
  and verifies the file or directory exists (``repro/...`` resolves
  under ``src/``); a path whose last segment is a glob
  (``repro/storage/lsm/*.py``) must match at least one path;
* relative markdown links (``[text](OBSERVABILITY.md)``) and verifies
  the target exists relative to the citing document;
* inline (non-backticked) ``src/repro/...`` path references in prose —
  the kind stale docs accumulate when a module moves — and verifies
  each exists on disk.

Exit status 0 when everything resolves, 1 otherwise (one line per
broken reference).  Run from anywhere: paths resolve against the repo
root (this script's parent's parent).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: directories a cited repo path may start with
ROOTS = ("src", "repro", "tests", "docs", "examples", "benchmarks",
         "bench", "tools")

BACKTICK = re.compile(r"`([^`\n]+)`")
MDLINK = re.compile(r"\[[^\]]*\]\(([^)#\s]+)\)")
#: bare src/repro/... references in prose (outside backticks/links)
INLINE_SRC = re.compile(r"\bsrc/repro/[\w./-]*\w")


def candidate_paths(text: str):
    """Backtick-quoted strings that look like repo file paths."""
    for match in BACKTICK.finditer(text):
        token = match.group(1).strip()
        # strip trailing prose punctuation some citations carry
        token = token.rstrip(".,;:")
        if "/" not in token:
            continue
        head, _, last = token.rpartition("/")
        if any(ch in head + last.replace("*", "")
               for ch in " ()*{}<>$\"'=,"):
            continue                      # code snippets, not paths
        first = token.split("/", 1)[0]
        if first in ROOTS:
            yield token


def resolve_repo_path(token: str) -> bool:
    # a module path (repro/...) lives under src/
    bases = [REPO, REPO / "src"] if token.startswith("repro/") else [REPO]
    if "*" in token:                      # a glob: needs one match
        return any(next(base.glob(token), None) is not None
                   for base in bases)
    return any((base / token).exists() for base in bases)


def inline_src_paths(text: str):
    """Bare ``src/repro/...`` references outside backticks — scan with
    the backticked spans blanked so each reference is reported once."""
    blanked = BACKTICK.sub(lambda m: " " * len(m.group(0)), text)
    for match in INLINE_SRC.finditer(blanked):
        yield match.group(0).rstrip(".,;:")


def check_file(doc: Path) -> list[str]:
    text = doc.read_text()
    errors = []
    for token in candidate_paths(text):
        if not resolve_repo_path(token):
            errors.append(f"{doc.relative_to(REPO)}: broken path `{token}`")
    for token in inline_src_paths(text):
        if not resolve_repo_path(token):
            errors.append(
                f"{doc.relative_to(REPO)}: broken inline path {token}")
    for match in MDLINK.finditer(text):
        target = match.group(1)
        if "://" in target or target.startswith("mailto:"):
            continue
        if not ((doc.parent / target).exists() or (REPO / target).exists()):
            errors.append(
                f"{doc.relative_to(REPO)}: broken link ({target})")
    return errors


def main() -> int:
    docs = sorted((REPO / "docs").glob("*.md")) + [
        REPO / "README.md", REPO / "DESIGN.md", REPO / "EXPERIMENTS.md"]
    errors = []
    for doc in docs:
        if doc.exists():
            errors.extend(check_file(doc))
    for error in errors:
        print(error)
    if not errors:
        print(f"ok: {len(docs)} docs, all cited paths resolve")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
