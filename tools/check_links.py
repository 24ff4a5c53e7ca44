#!/usr/bin/env python
"""Validate that intra-repo markdown links resolve to files and headings.

Scans ``README.md``, ``ROADMAP.md`` and every ``docs/*.md`` for inline
markdown links, skips external schemes (http/https/mailto), resolves
the rest relative to the containing file, and reports every target that
does not exist — and every ``#fragment`` that names no heading of its
target file (the containing file for a pure anchor), slugged by
GitHub's rule.  Exit status 1 on any broken link, so
``make docs-check`` can gate on it; ``tests/test_docs.py`` runs the same
check under tier-1.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

#: Inline markdown link: [text](target) — target up to the first ')' or
#: whitespace (titles like `(x "y")` keep only the path part).
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)")

#: Link targets that never resolve to a repo file.
EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "ftp://")

#: An ATX heading line: ``## Title`` (optional closing hashes dropped).
HEADING_RE = re.compile(r"^#{1,6}\s+(.*?)(?:\s+#+)?\s*$")


def heading_anchors(path: Path) -> set[str]:
    """The ``#fragment`` ids GitHub gives the headings of ``path``.

    A slug is the heading lower-cased, stripped of everything but
    letters, digits, ``_``, ``-`` and spaces, with spaces turned into
    hyphens; a repeated slug gets ``-1``, ``-2``, ... .  Lines inside
    fenced code blocks are not headings.
    """
    anchors: set[str] = set()
    repeats: dict[str, int] = {}
    fenced = False
    for line in path.read_text().splitlines():
        if line.lstrip().startswith(("```", "~~~")):
            fenced = not fenced
            continue
        match = None if fenced else HEADING_RE.match(line)
        if match:
            slug = re.sub(r"[^\w\- ]", "", match.group(1).lower())
            slug = slug.replace(" ", "-")
            count = repeats.get(slug, 0)
            repeats[slug] = count + 1
            anchors.add(f"{slug}-{count}" if count else slug)
    return anchors


def markdown_files(root: Path) -> list[Path]:
    """The markdown set the repo's docs subsystem guarantees link-clean."""
    files = [root / "README.md", root / "ROADMAP.md"]
    files.extend(sorted((root / "docs").glob("*.md")))
    return [f for f in files if f.is_file()]


def check_links(root: Path) -> list[str]:
    """Return one error string per broken intra-repo link under ``root``."""
    errors: list[str] = []
    for source in markdown_files(root):
        for target in LINK_RE.findall(source.read_text()):
            if target.startswith(EXTERNAL_PREFIXES):
                continue
            path_part, _, fragment = target.partition("#")
            resolved = ((source.parent / path_part).resolve() if path_part
                        else source)   # a pure anchor names its own file
            if not resolved.exists():
                errors.append(
                    f"{source.relative_to(root)}: broken link -> {target}")
            elif fragment and (not resolved.is_file()
                               or fragment not in heading_anchors(resolved)):
                errors.append(
                    f"{source.relative_to(root)}: broken anchor -> {target}")
    return errors


def main() -> int:
    """CLI entry point: print broken links, exit 1 when any exist."""
    root = Path(__file__).resolve().parents[1]
    files = markdown_files(root)
    errors = check_links(root)
    for error in errors:
        print(error)
    print(f"docs-check: {len(files)} markdown files, "
          f"{len(errors)} broken links")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
