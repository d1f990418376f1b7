"""Docs may only name files that exist, quote numbers that are on file,
index names that import and point at sections that exist.

Five checks, none of which runs a simulation:

* every ``benchmarks/…``, ``examples/…``, ``tests/…`` or ``src/…`` path
  written in ``README.md``, ``DESIGN.md``, ``EXPERIMENTS.md`` or
  ``docs/*.md`` is a file or directory of this tree, and every ``*.json`` /
  ``*.txt`` / ``*.md`` name that fills a code span of its own is a file at
  the repository root (a name inside a command line is the reader's file);
* every numeric cell of a table in ``EXPERIMENTS.md`` occurs in
  ``experiments_report.md``, the committed output of the command that file
  names;
* every name ``docs/api.md`` lists in an Item column resolves as an
  attribute of the module its section heading names, and every dotted
  ``repro.…`` code span of ``docs/architecture.md`` imports;
* every reference to a section of ``docs/architecture.md`` — a link
  anchor, or a section name quoted beside the file's name — in the docs,
  ``src/`` or ``tests/`` names a heading the file has.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
]
REPORT = ROOT / "experiments_report.md"

#: A path under one of the four source roots; ``{a,b}`` alternatives allowed.
TREE_PATH = re.compile(r"(?<![\w/.-])((?:benchmarks|examples|tests|src)/[\w./{},*-]*[\w/}*])")
#: A file name, with no directory, that is the whole of a code span.
ROOT_FILE = re.compile(r"`([A-Za-z][\w.-]*\.(?:json|txt|md))`")


def _expand(path):
    """``a/{b,c}/d`` -> ``a/b/d``, ``a/c/d`` (one level is all the docs use)."""
    braces = re.search(r"\{([^{}]*)\}", path)
    if braces is None:
        return [path]
    return [
        path[: braces.start()] + choice + path[braces.end() :]
        for choice in braces.group(1).split(",")
    ]


def _exists(path):
    return any(ROOT.glob(path)) if "*" in path else (ROOT / path).exists()


def quoted_files():
    """``(where, path)`` for every file the docs name."""
    for doc in DOCS:
        for number, line in enumerate(doc.read_text().splitlines(), start=1):
            where = f"{doc.relative_to(ROOT)}:{number}"
            for match in TREE_PATH.finditer(line):
                for path in _expand(match.group(1)):
                    yield where, path
            for match in ROOT_FILE.finditer(line):
                yield where, match.group(1)


def test_the_docs_name_files():
    """Guards the extraction: finding nothing would make the check vacuous."""
    found = {path for _, path in quoted_files()}
    assert {"examples/full_reproduction.py", "benchmarks/ledger/README.md",
            "experiments_report.md", "BENCHMARK.json"} <= found


def test_every_file_the_docs_name_exists():
    missing = [f"{where}: {path}" for where, path in quoted_files() if not _exists(path)]
    assert missing == []


NUMBER = r"\d[\d,]*(?:\.\d+)?"
NUMERIC_CELL = re.compile(rf"^({NUMBER})(?: ±({NUMBER}))?$")


def numeric_cells():
    """``(line number, number)`` for every table cell of ``EXPERIMENTS.md``
    that is a number (bold markers stripped; ``a ±b`` counts as two)."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.startswith("|"):
            continue
        for cell in line.strip("|").split("|"):
            match = NUMERIC_CELL.match(cell.strip().strip("*"))
            if match:
                for value in match.groups():
                    if value is not None:
                        yield number, value


def test_experiments_tables_quote_the_committed_report():
    on_file = set(re.findall(NUMBER, REPORT.read_text()))
    cells = list(numeric_cells())
    assert len(cells) > 150  # guards the extraction
    strangers = [f"EXPERIMENTS.md:{line}: {value}" for line, value in cells if value not in on_file]
    assert strangers == []


API_INDEX = ROOT / "docs" / "api.md"
API_HEADING = re.compile(r"^## `([\w.]+)`")

#: Run in a fresh interpreter, so a submodule another test imported cannot
#: make its package's attribute resolve.  A name qualified from ``repro.``
#: imports its module part; any other name is an attribute chain off the
#: heading's module, which is all ``import <heading>`` gives a reader.
RESOLVE = """
import importlib, json, sys
unresolved = []
for module, name in json.load(sys.stdin):
    parts = name.split(".")
    if parts[0] == "repro":
        cut = len(parts)
        while True:  # down to "repro" itself
            try:
                obj = importlib.import_module(".".join(parts[:cut]))
                break
            except ImportError:
                cut -= 1
        parts = parts[cut:]
    else:
        obj = importlib.import_module(module)
    try:
        for part in parts:
            obj = getattr(obj, part)
    except AttributeError:
        unresolved.append(module + ": " + name)
print(json.dumps(unresolved))
"""


def api_names():
    """``(module, name)`` for every code span in an Item cell of
    ``docs/api.md``, a call signature (``f(a, b) -> T``) stripped."""
    module = None
    for line in API_INDEX.read_text().splitlines():
        heading = API_HEADING.match(line)
        if heading:
            module = heading.group(1)
        elif module and line.startswith("| `"):
            for span in re.findall(r"`([^`]+)`", line.split("|")[1]):
                yield module, re.match(r"[\w.]+", span).group(0)


def unresolved(names):
    """The ``(module, name)`` pairs ``RESOLVE`` cannot resolve."""
    done = subprocess.run(
        [sys.executable, "-c", RESOLVE],
        input=json.dumps(names),
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_every_name_the_api_index_lists_imports():
    names = list(api_names())
    assert len(names) > 100  # guards the extraction
    assert unresolved(names) == []


ARCHITECTURE = ROOT / "docs" / "architecture.md"
#: A code span of its own (not part of a fenced block's backticks).
CODE_SPAN = re.compile(r"(?<!`)`([^`\n]+)`(?!`)")


def architecture_names():
    """``("repro", name)`` for every code span of ``docs/architecture.md``
    that starts with a dotted ``repro.`` name (a call's arguments cut)."""
    for span in CODE_SPAN.findall(ARCHITECTURE.read_text()):
        if span.startswith("repro."):
            yield "repro", re.match(r"[\w.]+", span).group(0).rstrip(".")


def test_every_repro_name_in_the_architecture_doc_imports():
    names = list(architecture_names())
    assert len(names) > 20  # guards the extraction
    assert unresolved(names) == []


def _anchor(heading):
    """The id a markdown renderer gives a heading: lower case, punctuation
    dropped, each space a hyphen (``A & B`` -> ``a--b``)."""
    return re.sub(r"[^\w\- ]", "", heading.lower()).replace(" ", "-")


HEADING = re.compile(r"^#+ (.+)$", re.MULTILINE)
#: ``architecture.md#anchor``, or ``(#anchor)`` inside the file itself.
ANCHOR_REF = re.compile(r"architecture\.md#([\w-]+)")
LOCAL_ANCHOR = re.compile(r"\]\(#([\w-]+)\)")
#: The file's name followed by a quoted section, ``… architecture.md`` ("Name"),
#: or an italic section name before it, *Name* in ``… architecture.md``.
QUOTED_AFTER = re.compile(r'architecture\.md`*\s*\(\s*"([^"]+)"')
ITALIC_BEFORE = re.compile(r"\*([^*\n]+)\*\s+in\s+`*(?:docs/)?architecture\.md")


def section_references():
    """``(where, kind, name)`` for every reference to a section of
    ``docs/architecture.md`` in the docs, ``src/`` and ``tests/``."""
    code = [path for top in ("src", "tests") for path in sorted((ROOT / top).rglob("*.py"))]
    for path in [*DOCS, *code]:
        if path == Path(__file__).resolve():
            continue
        text = path.read_text()
        patterns = [(ANCHOR_REF, "anchor"), (QUOTED_AFTER, "name"), (ITALIC_BEFORE, "name")]
        if path == ARCHITECTURE:
            patterns.append((LOCAL_ANCHOR, "anchor"))
        for pattern, kind in patterns:
            for match in pattern.finditer(text):
                line = text.count("\n", 0, match.start()) + 1
                yield f"{path.relative_to(ROOT)}:{line}", kind, " ".join(match.group(1).split())


def test_every_reference_to_an_architecture_section_resolves():
    text = ARCHITECTURE.read_text()
    headings = [" ".join(h.replace("`", "").split()) for h in HEADING.findall(text)]
    targets = {"anchor": {_anchor(h) for h in headings}, "name": set(headings)}
    references = list(section_references())
    assert len(references) > 8  # guards the extraction
    dangling = [f"{where}: {name}" for where, kind, name in references if name not in targets[kind]]
    assert dangling == []
