"""Unit tests for trace file reading (format sniffing and parsing)."""

import pytest

from repro.sim.tracefile import (
    iter_records,
    parse_text_line,
    parse_value,
    render_jsonl,
    render_text,
    sniff_format,
)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("None", None),
        ("True", True),
        ("False", False),
        ("17", 17),
        ("1.5", 1.5),
        ("rts", "rts"),
        ("no-route", "no-route"),
    ],
)
def test_parse_value(text, expected):
    assert parse_value(text) == expected


def test_parse_text_line():
    record = parse_text_line("12.081672 mac.tx node=17 frame_kind=rts dst=None")
    assert record == {
        "t": 12.081672,
        "kind": "mac.tx",
        "node": 17,
        "frame_kind": "rts",
        "dst": None,
    }


def test_parse_text_line_rejects_garbage():
    with pytest.raises(ValueError):
        parse_text_line("just-one-token")
    with pytest.raises(ValueError):
        parse_text_line("1.0 kind orphanfield")


def test_sniff_by_suffix_then_content(tmp_path):
    jsonl = tmp_path / "a.jsonl"
    jsonl.write_text('{"t": 1.0, "kind": "k"}\n')
    assert sniff_format(jsonl) == "jsonl"

    # Wrong suffix, sniffed from the first line.
    disguised = tmp_path / "b.log"
    disguised.write_text('{"t": 1.0, "kind": "k"}\n')
    assert sniff_format(disguised) == "jsonl"

    text = tmp_path / "c.log"
    text.write_text("1.000000 k a=1\n")
    assert sniff_format(text) == "text"


def test_iter_records_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# header\n\n1.000000 k a=1\n")
    assert list(iter_records(path)) == [{"t": 1.0, "kind": "k", "a": 1}]


def test_iter_records_rejects_unknown_format(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("1.000000 k a=1\n")
    with pytest.raises(ValueError):
        list(iter_records(path, fmt="xml"))


def test_render_matches_tracefilewriter_formats():
    record = {"t": 1.5, "kind": "mac.tx", "node": 3, "frame_kind": "rts"}
    assert render_text(record) == "1.500000 mac.tx frame_kind=rts node=3"
    assert (
        render_jsonl(record)
        == '{"frame_kind": "rts", "kind": "mac.tx", "node": 3, "t": 1.5}'
    )
