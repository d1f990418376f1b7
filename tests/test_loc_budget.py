"""``src/repro`` stays under the line cap ``ROADMAP.md`` sets for it.

Lines are counted as ``find src/repro -name '*.py' | xargs cat | wc -l``
counts them: every newline of every ``.py`` file, comments and blank lines
included.
"""

from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
LINE_CAP = 17_800


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
