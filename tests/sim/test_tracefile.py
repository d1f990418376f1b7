"""Unit tests for the trace file writer."""

import json

import pytest

from repro.sim.trace import Tracer
from repro.sim.tracefile import TraceFileWriter


def test_text_format_lines(tmp_path, capsys):
    """Text is what ``repro-trace filter`` prints, not what a file holds."""
    from repro.obs import tracecli

    tracer = Tracer()
    path = tmp_path / "trace.txt"
    with TraceFileWriter(tracer, path) as writer:
        tracer.emit(1.5, "mac.tx", node=3, frame_kind="rts")
        tracer.emit(2.0, "dsr.drop", node=4, reason="negative-cache")
        tracer.emit(2.5, "dsr.link_break", node=4, link=(4, 11))
    assert writer.records_written == 3
    assert path.read_text().startswith("{")  # jsonl whatever the suffix
    assert tracecli.main(["filter", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1.500000 mac.tx frame_kind=rts node=3"
    assert "reason=negative-cache" in lines[1]
    assert lines[2] == "2.500000 dsr.link_break link=[4, 11] node=4"


def test_jsonl_format(tmp_path):
    tracer = Tracer()
    path = tmp_path / "trace.jsonl"
    with TraceFileWriter(tracer, path):
        tracer.emit(1.5, "app.recv", uid=9, born=1.0)
    payload = json.loads(path.read_text().splitlines()[0])
    assert payload == {"t": 1.5, "kind": "app.recv", "uid": 9, "born": 1.0}


def test_kind_filtering(tmp_path):
    tracer = Tracer()
    path = tmp_path / "trace.txt"
    with TraceFileWriter(tracer, path, kinds=["mac.tx"]):
        tracer.emit(1.0, "mac.tx", node=1, frame_kind="data")
        tracer.emit(2.0, "other", node=2)
    assert len(path.read_text().splitlines()) == 1


def test_writes_stop_after_close(tmp_path):
    tracer = Tracer()
    path = tmp_path / "trace.txt"
    writer = TraceFileWriter(tracer, path)
    tracer.emit(1.0, "k", a=1)
    writer.close()
    tracer.emit(2.0, "k", a=2)  # silently dropped
    assert len(path.read_text().splitlines()) == 1


def test_flush_is_a_durability_checkpoint(tmp_path):
    tracer = Tracer()
    path = tmp_path / "trace.txt"
    writer = TraceFileWriter(tracer, path)
    tracer.emit(1.0, "k", a=1)
    writer.flush()
    # Visible on disk before close.
    assert len(path.read_text().splitlines()) == 1
    writer.close()


def test_counts_by_kind(tmp_path):
    tracer = Tracer()
    with TraceFileWriter(tracer, tmp_path / "t.txt") as writer:
        tracer.emit(1.0, "mac.tx", node=1)
        tracer.emit(2.0, "mac.tx", node=2)
        tracer.emit(3.0, "app.send", uid=1)
    assert writer.counts_by_kind == {"mac.tx": 2, "app.send": 1}
    assert writer.records_written == 3


def test_close_is_idempotent(tmp_path):
    tracer = Tracer()
    writer = TraceFileWriter(tracer, tmp_path / "t.txt")
    tracer.emit(1.0, "k")
    writer.close()
    writer.close()  # second close must not raise
    assert writer.records_written == 1


def test_exit_flushes_when_exception_propagates(tmp_path):
    tracer = Tracer()
    path = tmp_path / "t.txt"
    with pytest.raises(RuntimeError):
        with TraceFileWriter(tracer, path):
            tracer.emit(1.0, "k", a=1)
            tracer.emit(2.0, "k", a=2)
            raise RuntimeError("simulated fault")
    # Records written before the fault survive on disk.
    assert len(path.read_text().splitlines()) == 2


def test_close_detaches_subscription(tmp_path):
    tracer = Tracer()
    writer = TraceFileWriter(tracer, tmp_path / "t.txt")
    assert tracer.wants("anything")  # wildcard attached
    writer.close()
    assert not tracer.wants("anything")


def test_full_simulation_trace(tmp_path):
    from repro.scenarios.presets import tiny_scenario
    from repro.scenarios.builder import build_simulation

    handle = build_simulation(tiny_scenario(seed=5).but(duration=10.0))
    path = tmp_path / "run.txt"
    with TraceFileWriter(handle.tracer, path, kinds=["app.send", "app.recv"]) as writer:
        handle.sim.run(until=10.0)
    assert writer.records_written > 0
    assert all(
        json.loads(line)["kind"] in ("app.send", "app.recv")
        for line in path.read_text().splitlines()
    )
