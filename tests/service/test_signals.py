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
import threading

from repro.service.cli import _DrainSignal
from repro.service.client import ServiceClient
from repro.service.worker import ShardWorker, _signal_handler


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
