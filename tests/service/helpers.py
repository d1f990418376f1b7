"""Shared scaffolding for the service tests: tiny configs and fake tasks.

The service adds scheduling, not semantics, so most tests run a *fake*
task function (deterministic result from the payload, no simulation) and
only the end-to-end tests pay for real simulations.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List

from repro.metrics.collector import SimulationResult
from repro.scenarios.config import ScenarioConfig


def small_config(seed: int = 1, pause: float = 0.0, duration: float = 12.0) -> ScenarioConfig:
    return ScenarioConfig(
        num_nodes=10,
        field_width=500.0,
        field_height=300.0,
        duration=duration,
        num_sessions=3,
        pause_time=pause,
        seed=seed,
    )


def fake_result(payload: Dict[str, Any]) -> SimulationResult:
    """A deterministic pure-function-of-payload stand-in for a simulation."""
    seed = int(payload["seed"])
    return SimulationResult(
        duration=float(payload["duration"]),
        data_sent=100 + seed,
        data_received=90 + seed,
        duplicate_deliveries=0,
        delay_sum=0.5 * seed,
        mac_control_tx=10,
        routing_tx=20 + seed,
        data_tx=200,
        mac_failures=0,
        ifq_drops=0,
        rreq_sent=5,
        replies_received=4,
        good_replies=4,
        cache_replies_received=1,
        replies_sent_from_cache=1,
        replies_sent_from_target=3,
        cache_hits=2,
        invalid_cache_hits=0,
        link_breaks=1,
        salvages=0,
        throughput_kbps=8.0 + seed,
    )


def claim_when_dispatched(client: Any, worker: str, timeout: float = 5.0) -> Dict[str, Any]:
    """``client.claim(worker)``, polled until the coordinator's dispatcher
    thread has moved a just-submitted job onto the shard board."""
    deadline = time.monotonic() + timeout
    while True:
        claim = client.claim(worker)
        if claim is not None:
            return claim
        if time.monotonic() >= deadline:
            raise AssertionError(f"{worker!r} found no shard to claim within {timeout} s")
        time.sleep(0.01)


class CountingTask:
    """fake_result plus a thread-safe record of every execution."""

    def __init__(self) -> None:
        self.calls: List[int] = []
        self._lock = threading.Lock()

    def __call__(self, payload: Dict[str, Any]) -> SimulationResult:
        with self._lock:
            self.calls.append(int(payload["seed"]))
        return fake_result(payload)


class BlockingTask(CountingTask):
    """A task that signals ``started`` and then blocks until ``release``."""

    def __init__(self) -> None:
        super().__init__()
        self.started = threading.Event()
        self.release = threading.Event()

    def __call__(self, payload: Dict[str, Any]) -> SimulationResult:
        self.started.set()
        if not self.release.wait(timeout=30.0):
            raise TimeoutError("BlockingTask was never released")
        return super().__call__(payload)
