"""Unit tests for the metrics collector and result record."""

import math

import pytest

from repro.metrics.collector import MetricsCollector
from repro.sim.trace import Tracer


def _collector():
    tracer = Tracer()
    return tracer, MetricsCollector(tracer)


def test_delivery_fraction_and_delay():
    tracer, metrics = _collector()
    tracer.emit(0.0, "app.send", src=0, dst=1, uid=1)
    tracer.emit(0.0, "app.send", src=0, dst=1, uid=2)
    tracer.emit(0.5, "app.recv", src=0, dst=1, uid=1, born=0.0)
    result = metrics.finalize(duration=10.0)
    assert result.packet_delivery_fraction == 0.5
    assert result.average_delay == 0.5


def test_duplicate_deliveries_counted_once():
    tracer, metrics = _collector()
    tracer.emit(0.0, "app.send", src=0, dst=1, uid=1)
    tracer.emit(0.5, "app.recv", src=0, dst=1, uid=1, born=0.0)
    tracer.emit(0.9, "app.recv", src=0, dst=1, uid=1, born=0.0)
    result = metrics.finalize(duration=10.0)
    assert result.data_received == 1
    assert result.duplicate_deliveries == 1
    assert result.packet_delivery_fraction == 1.0


def test_overhead_separates_frame_classes():
    tracer, metrics = _collector()
    for kind in ("rts", "cts", "ack"):
        tracer.emit(0.0, "mac.tx", node=0, frame_kind=kind, dst=1, pkt_kind=None)
    tracer.emit(0.0, "mac.tx", node=0, frame_kind="data", dst=1, pkt_kind="rreq")
    tracer.emit(0.0, "mac.tx", node=0, frame_kind="data", dst=1, pkt_kind="data")
    tracer.emit(0.0, "app.send", src=0, dst=1, uid=1)
    tracer.emit(0.1, "app.recv", src=0, dst=1, uid=1, born=0.0)
    result = metrics.finalize(duration=10.0)
    assert result.mac_control_tx == 3
    assert result.routing_tx == 1
    assert result.data_tx == 1
    assert result.normalized_overhead == 4.0


def test_overhead_infinite_when_nothing_delivered():
    tracer, metrics = _collector()
    tracer.emit(0.0, "mac.tx", node=0, frame_kind="data", dst=1, pkt_kind="rreq")
    result = metrics.finalize(duration=10.0)
    assert math.isinf(result.normalized_overhead)


def test_cache_metrics():
    tracer, metrics = _collector()
    tracer.emit(0.0, "dsr.reply_recv", node=0, from_cache=True, valid=True, length=3, gratuitous=False)
    tracer.emit(0.0, "dsr.reply_recv", node=0, from_cache=False, valid=False, length=3, gratuitous=False)
    tracer.emit(0.0, "dsr.cache_use", node=0, purpose="originate", valid=True, dst=1, length=3)
    tracer.emit(0.0, "dsr.cache_use", node=0, purpose="salvage", valid=False, dst=1, length=3)
    result = metrics.finalize(duration=10.0)
    assert result.replies_received == 2
    assert result.pct_good_replies == 50.0
    assert result.cache_hits == 2
    assert result.pct_invalid_cache_hits == 50.0
    assert result.cache_replies_received == 1


def test_throughput_from_received_packets():
    tracer, metrics = _collector()
    for uid in range(10):
        tracer.emit(0.0, "app.send", src=0, dst=1, uid=uid)
        tracer.emit(0.1, "app.recv", src=0, dst=1, uid=uid, born=0.0)
    result = metrics.finalize(duration=10.0, payload_bytes=512)
    assert result.throughput_kbps == 10 * 512 * 8 / 1000.0 / 10.0


def test_drop_reason_accounting():
    tracer, metrics = _collector()
    tracer.emit(0.0, "dsr.drop", node=0, reason="negative-cache", pkt_kind="data", uid=1, src=0, dst=1)
    tracer.emit(0.0, "dsr.drop", node=0, reason="negative-cache", pkt_kind="data", uid=2, src=0, dst=1)
    tracer.emit(0.0, "dsr.drop", node=0, reason="no-route-to-salvage", pkt_kind="data", uid=3, src=0, dst=1)
    result = metrics.finalize(duration=10.0)
    assert result.drop_reasons == {"negative-cache": 2, "no-route-to-salvage": 1}


def test_to_dict_contains_headline_metrics():
    tracer, metrics = _collector()
    tracer.emit(0.0, "app.send", src=0, dst=1, uid=1)
    tracer.emit(0.5, "app.recv", src=0, dst=1, uid=1, born=0.0)
    result = metrics.finalize(duration=10.0)
    table = result.to_dict()
    for key in ("pdf", "delay", "overhead", "good_replies_pct", "invalid_cache_pct"):
        assert key in table


def test_zero_division_guards():
    tracer, metrics = _collector()
    result = metrics.finalize(duration=10.0)
    assert result.packet_delivery_fraction == 0.0
    assert result.average_delay == 0.0
    assert result.normalized_overhead == 0.0
    assert result.pct_good_replies == 0.0
    assert result.pct_invalid_cache_hits == 0.0


@pytest.mark.xfail(
    strict=True,
    reason="MetricsCollector subscribes to dsr.rreq_sent / dsr.link_break / "
    "dsr.drop only, so an AODV run reports 0 requests, 0 breaks and no drop "
    "reasons although its trace holds aodv.rreq_sent / aodv.link_break records; "
    "the --metrics rows sample the same collector and agree (docs/protocol.md "
    "'The collector is deaf to AODV'); the fix changes SimulationResult under "
    "an unchanged cache key, so it rides ROADMAP item 1's CACHE_FORMAT_VERSION bump",
)
def test_collector_hears_aodv_route_requests():
    from repro.scenarios.builder import build_simulation
    from repro.scenarios.presets import tiny_scenario

    config = tiny_scenario(seed=2).but(duration=20.0, protocol="aodv")
    result = build_simulation(config).run()
    assert result.rreq_sent > 0
