"""Golden tests for the ``repro-trace`` CLI."""

import json

import pytest

from repro.obs import tracecli
from repro.sim.trace import Tracer
from repro.sim.tracefile import TraceFileWriter


@pytest.fixture()
def trace_jsonl(tmp_path):
    """A small, fully deterministic jsonl trace."""
    tracer = Tracer()
    path = tmp_path / "run.jsonl"
    with TraceFileWriter(tracer, path):
        tracer.emit(0.5, "app.send", uid=1, src=0, dst=3)
        tracer.emit(1.25, "mac.tx", node=0, frame_kind="rts")
        tracer.emit(2.0, "app.recv", uid=1, born=0.5, src=0, dst=3)
        tracer.emit(6.5, "dsr.drop", node=2, reason="no-route")
        tracer.emit(7.0, "dsr.drop", node=2, reason="no-route")
        tracer.emit(8.0, "mac.tx", node=2, frame_kind="data")
    return path


GOLDEN_SUMMARY = """\
trace    : {path}
records  : 6
span     : 0.500000 .. 8.000000 s
kinds    :
  dsr.drop  2
  mac.tx    2
  app.recv  1
  app.send  1
drops    :
  no-route  2
"""


def test_summarize_golden(trace_jsonl, capsys):
    assert tracecli.main(["summarize", str(trace_jsonl)]) == 0
    out = capsys.readouterr().out
    assert out == GOLDEN_SUMMARY.format(path=trace_jsonl)


def test_summarize_json(trace_jsonl, capsys):
    assert tracecli.main(["summarize", str(trace_jsonl), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["records"] == 6
    assert payload["kinds"]["mac.tx"] == 2
    assert payload["drop_reasons"] == {"no-route": 2}
    assert payload["t_min"] == 0.5 and payload["t_max"] == 8.0


def test_filter_by_kind_and_time(trace_jsonl, capsys):
    code = tracecli.main(
        ["filter", str(trace_jsonl), "--kind", "mac.tx", "--since", "2"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == "8.000000 mac.tx frame_kind=data node=2\n"
    assert "1 record(s) matched" in captured.err


def test_filter_by_node_spans_field_names(trace_jsonl, capsys):
    assert tracecli.main(["filter", str(trace_jsonl), "--node", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    # Node 3 appears only as dst, on the send and the recv.
    assert len(out) == 2
    assert all("dst=3" in line for line in out)


def test_filter_jsonl_round_trips(trace_jsonl, capsys):
    assert (
        tracecli.main(["filter", str(trace_jsonl), "--format", "jsonl"]) == 0
    )
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(line)["kind"] for line in lines] == [
        "app.send",
        "mac.tx",
        "app.recv",
        "dsr.drop",
        "dsr.drop",
        "mac.tx",
    ]


def test_timeseries_csv(trace_jsonl, capsys):
    code = tracecli.main(
        ["timeseries", str(trace_jsonl), "--interval", "5", "--format", "csv"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t_start,t_end,app.recv,app.send,dsr.drop,mac.tx"
    assert lines[1] == "0,5,1,1,0,1"
    assert lines[2] == "5,10,0,0,2,1"


def test_timeseries_respects_kind_selection(trace_jsonl, capsys):
    code = tracecli.main(
        [
            "timeseries",
            str(trace_jsonl),
            "--interval",
            "5",
            "--kinds",
            "mac.tx",
            "--format",
            "csv",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t_start,t_end,mac.tx"
    assert lines[1:] == ["0,5,1", "5,10,1"]


def test_timeseries_rejects_bad_interval(trace_jsonl, capsys):
    with pytest.raises(SystemExit) as excinfo:
        tracecli.main(["timeseries", str(trace_jsonl), "--interval", "0"])
    assert excinfo.value.code == 2
    assert "argument --interval: expected a positive float" in capsys.readouterr().err


def test_missing_file_is_a_clean_error(tmp_path, capsys):
    assert tracecli.main(["summarize", str(tmp_path / "nope.jsonl")]) == 2
    assert "no such trace file" in capsys.readouterr().err


def test_works_on_text_format_and_flight_dumps(tmp_path, capsys):
    from repro.obs.flight import FlightRecorder

    tracer = Tracer()
    recorder = FlightRecorder(tracer, capacity=8)
    tracer.emit(1.0, "mac.tx", node=1, frame_kind="cts")
    path = recorder.dump(tmp_path / "flight.txt")
    assert tracecli.main(["summarize", str(path)]) == 0
    out = capsys.readouterr().out
    assert "records  : 1" in out
    assert "mac.tx" in out
    # Text is a rendering of the dump's records, not what the dump holds.
    assert tracecli.main(["filter", str(path)]) == 0
    assert capsys.readouterr().out == "1.000000 mac.tx frame_kind=cts node=1\n"
