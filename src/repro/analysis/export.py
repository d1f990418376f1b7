"""Persist a run's results as JSON, so they can be read elsewhere without
re-simulating."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.metrics.collector import SimulationResult

PathLike = Union[str, Path]


def result_to_json(result: SimulationResult, path: PathLike) -> Path:
    """Write a single run's full counters + derived metrics as JSON."""
    path = Path(path)
    payload = {
        "derived": result.to_dict(),
        "counters": {
            "duration": result.duration,
            "data_sent": result.data_sent,
            "data_received": result.data_received,
            "duplicate_deliveries": result.duplicate_deliveries,
            "mac_control_tx": result.mac_control_tx,
            "routing_tx": result.routing_tx,
            "data_tx": result.data_tx,
            "mac_failures": result.mac_failures,
            "ifq_drops": result.ifq_drops,
            "rreq_sent": result.rreq_sent,
            "replies_received": result.replies_received,
            "good_replies": result.good_replies,
            "cache_hits": result.cache_hits,
            "invalid_cache_hits": result.invalid_cache_hits,
            "link_breaks": result.link_breaks,
            "salvages": result.salvages,
            "drop_reasons": result.drop_reasons,
        },
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path

