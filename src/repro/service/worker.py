"""The pull-based sweep worker (``repro-worker``, and the service's own threads).

A worker is a loop around three verbs against a
:class:`~repro.service.core.SimulationService` — over HTTP
(:class:`ServiceClient`) for a ``repro-worker`` process in a
``distributed=True`` coordinator's fleet, as direct calls for the threads
a non-distributed service starts itself:

1. **claim** — ``POST /v1/leases/claim`` pulls the next shard (scenario
   payloads + keys), or backs off when the queue is idle;
2. **heartbeat** — a sidecar thread renews the lease every third of its
   TTL while the shard executes, so a healthy-but-slow worker is never
   mistaken for a dead one;
3. **complete** — results travel back as cache-entry payloads; delivery
   is first-wins on the coordinator, so a late worker whose lease already
   expired still contributes (and a duplicate is dropped harmlessly).
   This is the one way a result reaches the coordinator, which stores it
   in its cache once.

Execution is the sweep engine's own executor,
:func:`~repro.analysis.runner.execute_tasks`, over the claim's keys and
payloads.  Each key is first looked up in a local
:class:`~repro.analysis.cache.ResultCache` tier and each executed one is
stored there, so a shard requeued to the same worker after a failed
delivery resolves from disk.  (A worker handed a cache —
``ShardWorker(cache=...)`` — uses that instead.)

The claim/heartbeat loops lean on :class:`ServiceClient`'s bounded
transient-error retry, so a coordinator restart stalls the fleet instead
of crashing it.  SIGTERM/SIGINT finish the shard in hand, deliver it,
and exit.

Every claim carries the coordinator's trace context (``claim["trace"]``),
so the worker's side of the job — ``shard.execute``, per-task
``task.run``, ``cache.lookup`` — is recorded as spans in
the same trace and shipped back with the completion (see
:mod:`repro.obs.fleet`).  Lifecycle logging goes through the structured
JSONL logger (:mod:`repro.obs.slog`), one parseable line per event.
"""
from __future__ import annotations

import argparse
import os
import shutil
import signal
import socket
import sys
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Protocol, Sequence, Tuple

from repro.analysis.cache import ResultCache
from repro.analysis.runner import TaskFn, _run_payload, execute_tasks
from repro.metrics.collector import SimulationResult
from repro.obs.fleet import FleetTracer, Span
from repro.obs.slog import StructuredLogger
from repro.service.client import ServiceClient, ServiceError
from repro.version import __version__

__all__ = ["ShardWorker", "main"]


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


class LeaseClient(Protocol):
    """What a worker asks of the service: the lease verbs and the span
    fallback.  :class:`ServiceClient` speaks them over HTTP; failures
    surface as :class:`ServiceError` (``status`` 404 for a lapsed lease)."""

    def claim(self, worker: str) -> Optional[Dict[str, Any]]: ...

    def lease_heartbeat(self, lease_id: str) -> Dict[str, Any]: ...

    def complete(
        self,
        lease_id: str,
        results: Dict[str, SimulationResult],
        failures: Optional[Dict[str, str]] = None,
        stats: Optional[Dict[str, Any]] = None,
        spans: Optional[List[Dict[str, Any]]] = None,
    ) -> Dict[str, Any]: ...

    def post_spans(self, spans: List[Dict[str, Any]]) -> int: ...


#: ``ShardWorker(cache=...)`` default: build the worker's own local cache.
_OWN_CACHE: Any = object()


class ShardWorker:
    """Claims, executes and delivers shards until stopped."""

    def __init__(
        self,
        client: LeaseClient,
        worker_id: Optional[str] = None,
        cache_dir: Optional[str] = None,
        processes: int = 1,
        retries: int = 1,
        poll_s: float = 0.5,
        task_fn: Optional[TaskFn] = None,
        verbose: bool = False,
        tracer: Optional[FleetTracer] = None,
        log: Optional[StructuredLogger] = None,
        cache: Optional[ResultCache] = _OWN_CACHE,
    ) -> None:
        self.client = client
        self.worker_id = worker_id or default_worker_id()
        #: The local tier this worker made itself (no ``cache_dir``), which
        #: :meth:`run` removes when it returns; a given ``cache_dir`` is
        #: never touched.
        self._temp_cache_dir: Optional[str] = None
        self.processes = processes
        self.retries = retries
        self.poll_s = poll_s
        self._task_fn = task_fn or _run_payload
        self.tracer = tracer if tracer is not None else FleetTracer(proc=self.worker_id)
        base_log = log if log is not None else StructuredLogger(
            "worker", level="info" if verbose else "warning"
        )
        self.log = base_log.bind(worker=self.worker_id)
        if cache is _OWN_CACHE:
            if cache_dir is None:
                # No later process could find this tier, so it lives as long
                # as the loop: run() removes it on the way out.
                cache_dir = self._temp_cache_dir = tempfile.mkdtemp(
                    prefix="repro-worker-cache-"
                )
            cache = ResultCache(cache_dir)
        # The local tier; ``None`` (the caller has no cache) runs uncached.
        self.cache: Optional[ResultCache] = cache
        self._stop = threading.Event()
        # The signal-handler side of stop(): a plain attribute, because the
        # handler interrupts the very thread that waits on ``_stop``, and
        # ``threading.Event`` guards its flag with a non-reentrant lock — a
        # signal landing inside ``Event.wait`` would deadlock ``Event.set``.
        self._signalled = False
        self.shards_done = 0
        self.executed = 0
        # Trace context of the shard in hand.  Only the worker's main loop
        # (one thread) touches these; the heartbeat sidecar never traces.
        self._trace_ctx: Optional[Tuple[str, str]] = None
        self._span_stack: List[str] = []

    def stop(self) -> None:
        """Finish (and deliver) the shard in hand, then exit the loop.

        For other threads (an idle worker wakes at once); a signal handler
        must use :meth:`stop_from_signal`.
        """
        self._stop.set()

    def stop_from_signal(self) -> None:
        """:meth:`stop` without touching a lock; the loop notices within
        one ``poll_s``."""
        self._signalled = True

    @property
    def stopping(self) -> bool:
        return self._signalled or self._stop.is_set()

    # -- tracing --------------------------------------------------------------

    @contextmanager
    def trace_span(self, kind: str, **attrs: Any) -> Iterator[Optional[Span]]:
        """A worker-side span scoped to the shard in hand.

        Yields ``None`` (and records nothing) outside a traced shard, so
        a traced cache lookup costs one attribute check when idle.  Spans
        nest: the innermost open span is the next one's parent, rooted at
        the shard's ``shard.execute`` span.  Main-loop thread only.
        """
        ctx = self._trace_ctx
        if ctx is None:
            yield None
            return
        parent = self._span_stack[-1] if self._span_stack else ctx[1]
        span = self.tracer.start(kind, ctx[0], parent_id=parent, attrs=attrs)
        if span is None:
            yield None
            return
        self._span_stack.append(span.span_id)
        try:
            yield span
        except BaseException as exc:
            span.attrs["error"] = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            self._span_stack.pop()
            self.tracer.finish(span)

    def _lookup(self, key: str) -> Optional[SimulationResult]:
        """The local tier's entry for ``key``, read in a ``cache.lookup`` span."""
        if self.cache is None:
            return None
        with self.trace_span("cache.lookup", key=key) as span:
            hit = self.cache.get(key)
            if span is not None:
                span.attrs["hit"] = hit is not None
            return hit

    def _traced_task(self, payload: dict) -> SimulationResult:
        with self.trace_span("task.run", seed=payload.get("seed")):
            return self._task_fn(payload)

    def run(self, max_shards: Optional[int] = None) -> int:
        """The worker loop; returns the number of shards delivered.

        However it ends — stopped, signalled, ``max_shards`` reached or
        raising — the temp local tier the worker made for itself is removed.
        """
        try:
            while not self.stopping:
                if max_shards is not None and self.shards_done >= max_shards:
                    break
                try:
                    claim = self.client.claim(self.worker_id)
                except ServiceError as exc:
                    # Unreachable past the client's retries, or the service
                    # is not distributed (409): back off and try again.
                    self.log.info("claim.failed", error=str(exc))
                    claim = None
                if claim is None:
                    self._stop.wait(self.poll_s)
                    continue
                self._execute_claim(claim)
        finally:
            if self._temp_cache_dir is not None:
                shutil.rmtree(self._temp_cache_dir, ignore_errors=True)
        return self.shards_done

    # -- one shard ------------------------------------------------------------

    def _execute_claim(self, claim: Dict[str, Any]) -> None:
        lease_id = str(claim["id"])
        ttl_s = float(claim.get("ttl_s", 10.0))
        tasks = list(claim.get("tasks", []))
        keys: List[str] = [str(task["key"]) for task in tasks]
        trace_blob = claim.get("trace") or {}
        trace_id = str(trace_blob.get("trace_id") or "") or None
        exec_span = self.tracer.start(
            "shard.execute",
            trace_id,
            parent_id=trace_blob.get("parent_id"),
            attrs={
                "shard": claim.get("shard"),
                "lease": lease_id,
                "worker": self.worker_id,
                "tasks": len(keys),
            },
        )
        if exec_span is not None and trace_id is not None:
            self._trace_ctx = (trace_id, exec_span.span_id)
        self.log.info(
            "shard.claimed",
            shard=claim.get("shard"),
            lease=lease_id,
            tasks=len(keys),
            trace=trace_id,
        )
        beat_stop = threading.Event()
        beater = threading.Thread(
            target=self._heartbeat_loop,
            args=(lease_id, ttl_s, beat_stop),
            name=f"repro-worker-heartbeat-{lease_id}",
            daemon=True,
        )
        beater.start()
        results: Dict[str, SimulationResult] = {}
        failures: Dict[str, str] = {}
        stats = {"executed": 0, "cache_hits": 0}
        try:
            # task.run spans only exist in-process: with a process pool the
            # executor ships the task to children, whose tracers we never see.
            task_fn = self._task_fn
            if self._trace_ctx is not None and self.processes == 1:
                task_fn = self._traced_task
            settled: Dict[str, SimulationResult] = {}
            todo: List[Tuple[str, dict]] = []
            for key, task in zip(keys, tasks):
                hit = self._lookup(key)
                if hit is None:
                    todo.append((key, task["scenario"]))
                else:
                    settled[key] = hit
            stats["cache_hits"] = len(settled)
            # The board already cut the claim in dispatch order.
            for done in execute_tasks(todo, task_fn, self.processes, self.retries):
                if done.error is not None:
                    # Named as failed; the coordinator fails those keys and
                    # still takes what settled.
                    failures[done.key] = done.error
                    continue
                result = done.result
                assert result is not None  # no error: the task returned it
                if self.cache is not None:
                    self.cache.put(done.key, result)
                settled[done.key] = result
                stats["executed"] += 1
            results = {key: settled[key] for key in keys if key in settled}
        except Exception as exc:  # defensive: a broken claim fails cleanly
            failures = {key: f"{type(exc).__name__}: {exc}" for key in keys}
        finally:
            beat_stop.set()
            beater.join()
            self._trace_ctx = None
            self.tracer.finish(
                exec_span,
                executed=stats["executed"],
                cache_hits=stats["cache_hits"],
                failed=len(failures),
            )
        spans: List[Dict[str, Any]] = []
        if trace_id is not None and exec_span is not None:
            spans = self.tracer.trace_dicts(trace_id)
            self.tracer.discard(trace_id)
        try:
            ack = self.client.complete(
                lease_id, results, failures, stats, spans=spans or None
            )
        except ServiceError as exc:
            # Coordinator unreachable past retries, or it restarted and no
            # longer knows the lease.  Nothing is lost: every result lives
            # in this worker's local tier and resolves the re-queued shard
            # instantly if this worker claims it again.  The spans still merge if the
            # coordinator is up (a restarted one knows the job's trace).
            self.log.warning("delivery.failed", lease=lease_id, error=str(exc))
            if spans:
                try:
                    self.client.post_spans(spans)
                except ServiceError:
                    self.log.info("spans.dropped", lease=lease_id, count=len(spans))
            return
        self.shards_done += 1
        self.executed += stats["executed"]
        self.log.info(
            "shard.delivered",
            lease=lease_id,
            accepted=ack.get("accepted"),
            late=ack.get("late"),
            finished_jobs=ack.get("finished_jobs"),
            executed=stats["executed"],
            cache_hits=stats["cache_hits"],
        )

    def _heartbeat_loop(
        self, lease_id: str, ttl_s: float, stop: threading.Event
    ) -> None:
        interval = max(0.05, ttl_s / 3.0)
        while not stop.wait(interval):
            try:
                self.client.lease_heartbeat(lease_id)
            except ServiceError as exc:
                if exc.status == 404:
                    # The lease lapsed (e.g. a long GC pause): stop renewing
                    # but keep executing — completion is accepted late.
                    self.log.info("lease.lapsed", lease=lease_id)
                    return
                # Transient even after client retries: keep beating; the
                # coordinator may come back before the lease expires.


# -- repro-worker ------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    from repro.cli import positive

    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description=(
            "Pull-based sweep worker: claims scenario shards from a "
            "distributed repro-serve coordinator, executes them through "
            "the sweep executor, and delivers the results back."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "--url",
        default="http://127.0.0.1:8642",
        help="coordinator base URL (default: http://127.0.0.1:8642)",
    )
    parser.add_argument(
        "--worker-id",
        default=None,
        help="fleet-visible worker name (default: <host>-<pid>)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="local result-cache tier, kept after exit (default: a fresh "
        "temp dir, removed when the worker exits, SIGTERM included)",
    )
    parser.add_argument(
        "--processes",
        type=positive(int),
        default=1,
        metavar="N",
        help="pool processes per shard (default: 1)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="in-parent retries per failed simulation (default: 1)",
    )
    parser.add_argument(
        "--poll",
        type=positive(float),
        default=0.5,
        metavar="SECONDS",
        help="idle back-off between claims (default: 0.5)",
    )
    parser.add_argument(
        "--max-shards",
        type=int,
        default=None,
        metavar="N",
        help="exit after delivering N shards (default: run until signalled)",
    )
    parser.add_argument(
        "--timeout", type=positive(float), default=30.0, help="per-request timeout (s)"
    )
    parser.add_argument(
        "--no-trace",
        action="store_true",
        help="do not record or ship fleet spans for executed shards",
    )
    parser.add_argument(
        "--flight-dir",
        metavar="DIR",
        default=None,
        help="arm a flight recorder per simulation: crash dumps the last "
        "trace records to DIR, and SIGTERM mid-shard snapshots the run "
        "in flight (implies the built-in run-scenario task)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log claims and deliveries"
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    from repro.devtools import lockdep

    if not lockdep.env_enabled():
        return _run_worker(args)
    # REPRO_LOCKDEP=1: witness the worker's lock discipline end to end.
    try:
        with lockdep.witness(strict=True):
            return _run_worker(args)
    except lockdep.LockOrderViolation as exc:
        print(f"repro-worker: {exc}", file=sys.stderr, flush=True)
        return 1


def _run_worker(args: argparse.Namespace) -> int:
    worker_id = args.worker_id or default_worker_id()
    client = ServiceClient(args.url, client_id=worker_id, timeout=args.timeout)
    flight_task = None
    if args.flight_dir is not None:
        from repro.obs.flight import FlightRecordingTaskFn

        flight_task = FlightRecordingTaskFn(Path(args.flight_dir))
    worker = ShardWorker(
        client,
        worker_id=worker_id,
        cache_dir=args.cache_dir,
        processes=args.processes,
        retries=args.retries,
        poll_s=args.poll,
        task_fn=flight_task,
        verbose=args.verbose,
        tracer=FleetTracer(proc=worker_id, enabled=not args.no_trace),
    )
    on_signal = _signal_handler(worker, flight_task)
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)

    print(
        f"repro-worker {__version__} ({worker_id}) pulling from {args.url}",
        flush=True,
    )
    delivered = worker.run(max_shards=args.max_shards)
    worker.log.warning("worker.done", delivered=delivered, executed=worker.executed)
    return 0


def _signal_handler(
    worker: ShardWorker, flight_task: Any
) -> Callable[[int, Any], None]:
    """The SIGTERM/SIGINT handler: runs on the main thread, in the middle
    of whatever the worker loop was doing, so it takes no lock — ``print``
    instead of the logger (non-reentrant I/O lock), a plain attribute
    instead of the stop ``Event`` (see :meth:`ShardWorker.stop_from_signal`).
    """
    worker_id = worker.worker_id

    def _on_signal(signum: int, _frame: Any) -> None:
        print(
            f"[{worker_id}] signal {signal.Signals(signum).name}: finishing "
            "current shard, then exiting",
            file=sys.stderr,
            flush=True,
        )
        if flight_task is not None:
            # Mid-shard SIGTERM: snapshot the simulation in flight before
            # it finishes cleanly — the post-mortem for "why was this
            # worker killed while slow".
            dumped = flight_task.dump_now(tag="sigterm")
            if dumped is not None:
                print(
                    f"[{worker_id}] flight ring dumped to {dumped}",
                    file=sys.stderr,
                    flush=True,
                )
        worker.stop_from_signal()

    return _on_signal


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
