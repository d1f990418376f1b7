"""The SIGTERM/SIGINT handlers of ``repro-worker`` and ``repro-serve``.

A Python signal handler runs on the main thread, between two bytecodes of
whatever that thread was doing.  Both CLIs' main threads idle inside
``threading.Event.wait`` — which holds the event's (non-reentrant) lock
for a moment on every call — so a handler that calls ``Event.set`` on the
same event deadlocks the process if the signal lands in that moment: once
in a few hundred SIGTERMs in practice.  The handlers therefore only store
a plain attribute.
"""

import signal
import tempfile
import threading

import pytest

from repro.analysis.cache import ResultCache
from repro.scenarios.io import scenario_to_dict
from repro.service.cli import _DrainSignal
from repro.service.client import ServiceClient
from repro.service.worker import ShardWorker, _signal_handler

from tests.service.helpers import fake_result, small_config


def test_worker_signal_handler_finishes_with_the_stop_events_lock_held(tmp_path):
    worker = ShardWorker(
        ServiceClient("http://127.0.0.1:9"), cache_dir=str(tmp_path / "cache")
    )
    handler = _signal_handler(worker, None)
    helper = threading.Thread(
        target=handler, args=(signal.SIGTERM, None), daemon=True
    )
    # The state the main thread is in when the signal lands mid-``wait``.
    with worker._stop._cond:
        helper.start()
        helper.join(timeout=1.0)
        finished = not helper.is_alive()
    helper.join(timeout=5.0)
    assert finished, "the handler blocked on the stop event's lock"
    assert worker.stopping
    assert worker.run() == 0  # the loop notices without claiming anything


def test_worker_stop_from_another_thread_still_wakes_an_idle_worker(tmp_path):
    worker = ShardWorker(
        ServiceClient("http://127.0.0.1:9", retries=0, timeout=0.2),
        cache_dir=str(tmp_path / "cache"),
        poll_s=30.0,
    )
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    worker.stop()
    thread.join(timeout=5.0)
    assert not thread.is_alive()


def test_serve_signal_handler_only_raises_a_flag():
    drain_signal = _DrainSignal(grace_s=1.0)
    assert not drain_signal.received
    drain_signal(signal.SIGTERM, None)
    assert drain_signal.received


def _stored_entry(cache_dir):
    result = fake_result(scenario_to_dict(small_config()))
    return ResultCache(cache_dir).put("ab" + "0" * 62, result)


@pytest.mark.parametrize("stop", ["stop", "sigterm"])
def test_worker_removes_the_temp_tier_it_made(tmp_path, monkeypatch, stop):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    worker = ShardWorker(ServiceClient("http://127.0.0.1:9"))
    [made] = tmp_path.glob("repro-worker-cache-*")
    entry = _stored_entry(made)
    assert entry.exists()
    if stop == "stop":
        worker.stop()
    else:
        _signal_handler(worker, None)(signal.SIGTERM, None)
    assert worker.run() == 0
    assert list(tmp_path.glob("repro-worker-cache-*")) == []


def test_worker_keeps_a_given_cache_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "temp"))
    cache_dir = tmp_path / "cache"
    worker = ShardWorker(ServiceClient("http://127.0.0.1:9"), cache_dir=str(cache_dir))
    entry = _stored_entry(cache_dir)
    _signal_handler(worker, None)(signal.SIGTERM, None)
    assert worker.run() == 0
    assert entry.exists()
    assert not (tmp_path / "temp").exists()
