"""Unit tests for the per-interval metrics timeseries.

The fixture is shaped like a ``SimulationHandle``: a simulator, a tracer
with a real ``MetricsCollector`` on it, and the nodes whose send buffers
the sampler reads.
"""

import json
from types import SimpleNamespace

import pytest

from repro.metrics.collector import MetricsCollector
from repro.obs.interval import COLUMNS, IntervalMetrics
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer


def _handle(nodes=None):
    tracer = Tracer()
    return SimpleNamespace(
        sim=Simulator(),
        tracer=tracer,
        metrics=MetricsCollector(tracer),
        nodes=nodes or {},
    )


def _attach(interval=5.0, nodes=None):
    handle = _handle(nodes)
    metrics = IntervalMetrics(interval=interval).attach(handle)
    return handle.sim, handle.tracer, metrics


def test_rejects_non_positive_interval():
    with pytest.raises(ValueError):
        IntervalMetrics(interval=0.0)


def test_columns_are_the_result_counters():
    assert COLUMNS[0] == "data_sent" and COLUMNS[-1] == "salvages"
    assert "delay_sum" in COLUMNS
    assert "duration" not in COLUMNS and "drop_reasons" not in COLUMNS


def test_rows_carry_per_interval_deltas():
    sim, tracer, metrics = _attach(interval=5.0)
    sim.schedule(1.0, lambda: tracer.emit(sim.now, "app.send", uid=1, src=0, dst=1))
    sim.schedule(2.0, lambda: tracer.emit(sim.now, "app.recv", uid=1, born=1.0))
    sim.schedule(7.0, lambda: tracer.emit(sim.now, "app.send", uid=2, src=0, dst=1))
    sim.run(until=10.0)
    rows = metrics.finish()
    assert len(rows) == 2
    first, second = rows
    assert (first["t_start"], first["t_end"]) == (0.0, 5.0)
    assert first["data_sent"] == 1 and first["data_received"] == 1
    assert first["delay_sum"] == 1.0
    assert first["delivery_ratio"] == 1.0
    # Second interval: only the send at t=7 — the counter delta, not the total.
    assert second["data_sent"] == 1 and second["data_received"] == 0
    assert second["delivery_ratio"] == 0.0


def test_delivery_ratio_null_when_nothing_originated():
    sim, tracer, metrics = _attach(interval=5.0)
    sim.run(until=5.0)
    rows = metrics.finish()
    assert rows[0]["delivery_ratio"] is None


def test_duplicate_deliveries_count_once():
    sim, tracer, metrics = _attach(interval=10.0)
    sim.schedule(1.0, lambda: tracer.emit(sim.now, "app.send", uid=1, src=0, dst=1))
    sim.schedule(2.0, lambda: tracer.emit(sim.now, "app.recv", uid=1, born=1.0))
    sim.schedule(3.0, lambda: tracer.emit(sim.now, "app.recv", uid=1, born=1.0))
    sim.run(until=10.0)
    rows = metrics.finish()
    assert rows[0]["data_received"] == 1
    assert rows[0]["duplicate_deliveries"] == 1


def test_stale_cache_hits_split_out():
    sim, tracer, metrics = _attach(interval=10.0)
    sim.schedule(1.0, lambda: tracer.emit(sim.now, "dsr.cache_use", valid=True))
    sim.schedule(2.0, lambda: tracer.emit(sim.now, "dsr.cache_use", valid=False))
    sim.run(until=10.0)
    rows = metrics.finish()
    assert rows[0]["cache_hits"] == 2
    assert rows[0]["invalid_cache_hits"] == 1


def test_finish_closes_partial_interval_once():
    sim, tracer, metrics = _attach(interval=5.0)
    sim.schedule(6.0, lambda: tracer.emit(sim.now, "app.send", uid=1, src=0, dst=1))
    sim.run(until=7.0)
    rows = metrics.finish()
    assert len(rows) == 2
    assert rows[1]["t_end"] == 7.0
    assert metrics.finish() is rows  # idempotent: no empty third row
    assert len(rows) == 2


def test_detach_stops_the_clock():
    sim, tracer, metrics = _attach(interval=5.0)
    metrics.detach()
    sim.run(until=20.0)  # pending tick was cancelled: no new rows
    assert metrics.rows == []
    assert sim.pending_events == 0
    metrics.detach()  # idempotent


def test_send_buffer_gauge_samples_nodes():
    node = SimpleNamespace(agent=SimpleNamespace(send_buffer=[1, 2, 3]))
    bufferless = SimpleNamespace(agent=SimpleNamespace())
    sim, tracer, metrics = _attach(interval=5.0, nodes={0: node, 1: bufferless})
    sim.run(until=5.0)
    rows = metrics.finish()
    assert rows[0]["send_buffer_depth"] == 3


def test_export_jsonl_and_csv(tmp_path):
    sim, tracer, metrics = _attach(interval=5.0)
    sim.schedule(1.0, lambda: tracer.emit(sim.now, "app.send", uid=1, src=0, dst=1))
    sim.run(until=5.0)
    metrics.finish()

    jsonl = tmp_path / "ts.jsonl"
    metrics.export_jsonl(jsonl)
    rows = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert rows[0]["data_sent"] == 1

    csv_path = tmp_path / "ts.csv"
    metrics.export_csv(csv_path)
    header, row = csv_path.read_text().splitlines()[:2]
    assert header.split(",")[:4] == ["interval", "t_start", "t_end", "data_sent"]
    assert row.split(",")[0] == "0"  # interval index
