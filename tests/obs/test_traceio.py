"""Unit tests for trace file reading: one format, typed values, torn tails."""

import pytest

from repro.obs import tracecli
from repro.obs.flight import FlightRecorder
from repro.sim.trace import Tracer
from repro.sim.tracefile import (
    TraceFileWriter,
    iter_records,
    record_dict,
    render_jsonl,
)


@pytest.mark.parametrize(
    "value",
    [None, True, False, 17, 1.5, "rts", "no-route", "17", "None", [4, 11]],
    ids=["None", "True", "False", "17", "1.5", "rts", "no-route", "str-17", "str-None", "list"],
)
def test_field_value_keeps_its_type(value, tmp_path):
    # json carries the type, so nothing is guessed on the way back: the
    # string "17" is not the int 17 and the string "None" is not None.
    tracer = Tracer()
    path = tmp_path / "run.jsonl"
    with TraceFileWriter(tracer, path):
        tracer.emit(1.0, "k", v=value)
    [record] = iter_records(path)
    assert record["v"] == value and type(record["v"]) is type(value)


def test_iter_records_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('# header\n\n{"t": 1.0, "kind": "k", "a": 1}\n')
    assert list(iter_records(path)) == [{"t": 1.0, "kind": "k", "a": 1}]


def test_suffix_does_not_decide_the_format(tmp_path):
    disguised = tmp_path / "b.log"
    disguised.write_text('{"t": 1.0, "kind": "k"}\n')
    assert list(iter_records(disguised)) == [{"t": 1.0, "kind": "k"}]

    mislabelled = tmp_path / "c.jsonl"
    mislabelled.write_text("1.000000 k a=1\n")
    with pytest.raises(ValueError):
        list(iter_records(mislabelled))


def test_iter_records_refuses_a_text_trace(tmp_path, capsys):
    path = tmp_path / "t.txt"
    path.write_text("1.000000 k a=1\n")
    with pytest.raises(ValueError, match=r"t\.txt:1: not a jsonl trace record"):
        list(iter_records(path))
    assert tracecli.main(["summarize", str(path)]) == 2
    assert f"error: {path}:1: not a jsonl trace record" in capsys.readouterr().err


def test_bad_line_names_file_and_line(tmp_path):
    path = tmp_path / "run.jsonl"
    good = '{"t": 1.0, "kind": "k"}\n'
    # Garbage, a cut record that is *not* the tail, json that is not a record.
    for bad in ("just-one-token\n", '{"t": 2.0, "ki\n', "[1, 2]\n", '{"t": 2.0}\n'):
        path.write_text(f"# header\n{good}{bad}{good}")
        with pytest.raises(ValueError, match=r"run\.jsonl:3: not a jsonl trace record"):
            list(iter_records(path))


def test_torn_tail_is_skipped_and_said(tmp_path, capsys):
    """What SIGKILL leaves: the last line cut mid-record, no newline."""
    path = tmp_path / "torn.jsonl"
    good = '{"t": 1.0, "kind": "k", "a": 1}\n'
    path.write_text(good + good + '{"t": 2.0, "kind": "k", "a')
    reader = iter_records(path)
    records = []
    with pytest.raises(StopIteration) as stop:
        while True:
            records.append(next(reader))
    assert len(records) == 2 and stop.value.value == 1

    assert tracecli.main(["summarize", str(path), "--json"]) == 0
    captured = capsys.readouterr()
    assert '"records": 2' in captured.out
    assert "1 torn trailing line skipped" in captured.err

    # A last line that merely lacks its newline is a record like any other.
    path.write_text(good + good.rstrip("\n"))
    assert len(list(iter_records(path))) == 2


def test_render_matches_tracefilewriter_formats():
    record = {"t": 1.5, "kind": "mac.tx", "node": 3, "frame_kind": "rts"}
    assert (
        render_jsonl(record)
        == '{"frame_kind": "rts", "kind": "mac.tx", "node": 3, "t": 1.5}'
    )


def test_round_trip_on_a_run_that_breaks_links(tmp_path, capsys):
    """The trace and the flight dump of a run with ``link=(a, b)`` records
    read back record for record and replay to the live result."""
    from repro.metrics.replay import replay_metrics
    from repro.scenarios.builder import build_simulation
    from repro.scenarios.presets import tiny_scenario

    # repro-run --preset tiny --seed 2 --duration 20 (whose --packet-rate defaults to 3)
    config = tiny_scenario(seed=2).but(duration=20.0, packet_rate=3.0)
    handle = build_simulation(config)
    live = []
    handle.tracer.subscribe("*", live.append)
    recorder = FlightRecorder(handle.tracer, capacity=8192)
    trace = tmp_path / "run.trace"  # the suffix means nothing
    with TraceFileWriter(handle.tracer, trace):
        result = handle.run()
    dump = recorder.dump(tmp_path / "flight.jsonl")

    # json has no tuple: a tuple field comes back as a list, nothing else moves.
    expected = [
        {k: list(v) if isinstance(v, tuple) else v for k, v in record_dict(r).items()}
        for r in live
    ]
    assert len(expected) == 4506
    assert sum(r["kind"] == "dsr.link_break" for r in expected) == 39
    assert sum("link" in r for r in expected) == 68
    for path in (trace, dump):
        assert list(iter_records(path)) == expected
        assert tracecli.main(["summarize", str(path)]) == 0
        assert "records  : 4506" in capsys.readouterr().out
        replayed = replay_metrics(
            path,
            duration=config.duration,
            payload_bytes=config.payload_bytes,
            offered_load_kbps=config.offered_load_kbps,
        )
        assert replayed == result
