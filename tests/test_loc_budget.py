"""``src/repro`` and ``docs/architecture.md`` stay under the line caps
``ROADMAP.md`` sets for them.

Lines are counted as ``wc -l`` counts them (for ``src/repro``, over
``find src/repro -name '*.py' | xargs cat``): every newline, comments and
blank lines included.
"""

from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
LINE_CAP = 17_800
ARCHITECTURE = ROOT / "docs" / "architecture.md"
ARCHITECTURE_LINE_CAP = 450


def _lines_per_package():
    """Lines per top-level package of ``repro``; modules directly under it
    count as ``repro``."""
    counts = Counter()
    for path in SRC.rglob("*.py"):
        parts = path.relative_to(SRC).parts
        package = parts[0] if len(parts) > 1 else "repro"
        counts[package] += path.read_bytes().count(b"\n")
    return counts


def test_src_repro_is_within_the_line_cap():
    counts = _lines_per_package()
    total = sum(counts.values())
    largest = ", ".join(f"{name} {lines}" for name, lines in counts.most_common(5))
    assert total <= LINE_CAP, (
        f"src/repro has {total} lines, over the {LINE_CAP} cap; "
        f"largest packages: {largest}"
    )


def test_architecture_doc_is_within_its_line_cap():
    """The file describes the code as it is; measurement history belongs in
    ``CHANGES.md`` under the PR that took it."""
    lines = ARCHITECTURE.read_bytes().count(b"\n")
    assert lines <= ARCHITECTURE_LINE_CAP, (
        f"docs/architecture.md has {lines} lines, over the {ARCHITECTURE_LINE_CAP} cap"
    )
