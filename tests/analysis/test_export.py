"""Unit tests for CSV/JSON export."""

import json

from repro.analysis.export import result_to_json
from repro.metrics.collector import SimulationResult


def _result():
    return SimulationResult(
        duration=100.0,
        data_sent=100,
        data_received=90,
        duplicate_deliveries=1,
        delay_sum=9.0,
        mac_control_tx=300,
        routing_tx=120,
        data_tx=400,
        mac_failures=5,
        ifq_drops=2,
        rreq_sent=8,
        replies_received=10,
        good_replies=6,
        cache_replies_received=4,
        replies_sent_from_cache=3,
        replies_sent_from_target=7,
        cache_hits=50,
        invalid_cache_hits=10,
        link_breaks=12,
        salvages=3,
        drop_reasons={"no-route-to-salvage": 4},
    )


def test_result_to_json_roundtrip(tmp_path):
    path = result_to_json(_result(), tmp_path / "run.json")
    payload = json.loads(path.read_text())
    assert payload["derived"]["pdf"] == 0.9
    assert payload["counters"]["link_breaks"] == 12
    assert payload["counters"]["drop_reasons"] == {"no-route-to-salvage": 4}

