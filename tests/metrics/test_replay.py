"""Tests for offline metric recomputation from trace files."""

from repro.metrics.replay import iter_trace, replay_metrics
from repro.scenarios.builder import build_simulation
from repro.scenarios.presets import tiny_scenario
from repro.sim.tracefile import TraceFileWriter

_METRIC_KINDS = [
    "app.send",
    "app.recv",
    "mac.tx",
    "mac.fail",
    "ifq.drop",
    "dsr.rreq_sent",
    "dsr.reply_recv",
    "dsr.reply_sent",
    "dsr.cache_use",
    "dsr.link_break",
    "dsr.salvage",
    "dsr.drop",
]


def test_replay_reproduces_live_metrics(tmp_path):
    config = tiny_scenario(seed=8).but(duration=20.0)
    handle = build_simulation(config)
    path = tmp_path / "run.jsonl"
    with TraceFileWriter(handle.tracer, path, kinds=_METRIC_KINDS):
        live = handle.run()
    replayed = replay_metrics(
        path,
        duration=config.duration,
        payload_bytes=config.payload_bytes,
        offered_load_kbps=config.offered_load_kbps,
    )
    assert replayed == live


def test_iter_trace_skips_blank_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"t": 1.0, "kind": "app.send", "src": 0, "dst": 1, "uid": 1}\n\n')
    records = list(iter_trace(path))
    assert len(records) == 1
    assert records[0]["kind"] == "app.send"


def test_replay_ignores_unknown_kinds(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text(
        '{"t": 0.0, "kind": "app.send", "src": 0, "dst": 1, "uid": 1}\n'
        '{"t": 0.5, "kind": "custom.event", "whatever": 1}\n'
        '{"t": 1.0, "kind": "app.recv", "src": 0, "dst": 1, "uid": 1, "born": 0.0}\n'
    )
    result = replay_metrics(path, duration=10.0)
    assert result.data_sent == 1
    assert result.data_received == 1
    assert result.average_delay == 1.0
