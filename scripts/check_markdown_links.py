#!/usr/bin/env python3
"""Markdown link checker for the docs-lint CI step.

Checks every inline link and image target in the given markdown files:

  * relative file targets (optionally with a #fragment) must exist on disk,
    resolved against the linking file's directory;
  * intra-file ``#fragment`` targets must match a heading in that file
    (GitHub slug rules: lowercase, punctuation stripped, spaces to hyphens);
  * ``http(s)``/``mailto`` targets are accepted without fetching (CI stays
    hermetic) — only an empty target is an error.

Fenced code blocks and inline code spans are ignored, so ASCII diagrams and
``foo[i](x)``-style snippets do not produce false positives.

Usage: check_markdown_links.py FILE.md [FILE.md ...]
Exits non-zero listing every broken link.
"""

import re
import sys
from pathlib import Path

LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")


def strip_code(text: str, inline: bool = True) -> str:
    """Blanks out fenced code blocks and (unless `inline` is false) inline
    code spans."""
    out = []
    in_fence = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            out.append("")
            continue
        if in_fence:
            out.append("")
        else:
            out.append(re.sub(r"`[^`]*`", "", line) if inline else line)
    return "\n".join(out)


def github_slug(heading: str) -> str:
    heading = re.sub(r"`([^`]*)`", r"\1", heading).strip().lower()
    heading = re.sub(r"[^\w\- ]", "", heading)
    return heading.replace(" ", "-")


def heading_slugs(path: Path) -> set:
    # Inline code in a heading is part of its slug (github_slug unwraps
    # it), so only fenced blocks are blanked here.
    slugs = set()
    for line in strip_code(path.read_text(encoding="utf-8"), inline=False).splitlines():
        m = HEADING_RE.match(line)
        if m:
            slugs.add(github_slug(m.group(1)))
    return slugs


def check_file(path: Path) -> list:
    errors = []
    text = strip_code(path.read_text(encoding="utf-8"))
    for m in LINK_RE.finditer(text):
        target = m.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        if not target or target == "#":
            errors.append(f"{path}: empty link target")
            continue
        file_part, _, fragment = target.partition("#")
        resolved = path if not file_part else (path.parent / file_part)
        if not resolved.exists():
            errors.append(f"{path}: broken link -> {target}")
            continue
        if fragment and resolved.suffix == ".md":
            if github_slug(fragment) not in heading_slugs(resolved):
                errors.append(f"{path}: missing anchor -> {target}")
    return errors


def main(argv: list) -> int:
    if len(argv) < 2:
        print(__doc__)
        return 2
    errors = []
    for name in argv[1:]:
        path = Path(name)
        if not path.exists():
            errors.append(f"{path}: file not found")
            continue
        errors.extend(check_file(path))
    for e in errors:
        print(e)
    print(f"checked {len(argv) - 1} files, {len(errors)} broken links")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
