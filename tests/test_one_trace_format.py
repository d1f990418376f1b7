"""A trace line on disk is jsonl; ``src/repro`` has no second format to pick.

Static checks beside ``tests/test_one_client.py``; what the one format
*does* is in ``tests/obs/test_traceio.py``.
"""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

_GONE = re.compile(
    r"sniff_format|parse_text_line|parse_value|\bFORMATS\b|trace[-_]format"
    r"|(?:TraceFileWriter|iter_records|iter_trace)\([^)]*\bfmt\s*="
)


def test_no_format_knob_or_second_parser_in_src():
    hits = [
        f"{path.relative_to(SRC)}:{lineno}: {line.strip()}"
        for path in sorted((SRC / "repro").rglob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if _GONE.search(line)
    ]
    assert hits == []


def test_writer_and_reader_take_no_format_argument():
    import inspect

    from repro.sim.tracefile import TraceFileWriter, iter_records

    assert list(inspect.signature(TraceFileWriter).parameters) == ["tracer", "path", "kinds"]
    assert list(inspect.signature(iter_records).parameters) == ["path"]


def test_repro_run_has_no_trace_format_flag(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as exit_info:
        main(["--preset", "tiny", "--trace-format", "x"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --trace-format" in capsys.readouterr().err
