"""Command-line entry points for the simulation service.

``repro-serve`` runs the server::

    repro-serve --port 8642 --workers 4 --cache-dir ~/.cache/repro \\
                --journal service.jsonl

``repro-submit`` talks to it::

    repro-submit submit --preset tiny --duration 20 --seeds 1,2 --wait
    repro-submit submit --config exp.json --priority 5
    repro-submit status <job-id>
    repro-submit wait <job-id> --timeout 600
    repro-submit fetch <job-id> --json results.json
    repro-submit trace <job-id> | repro-trace job -
    repro-submit cancel <job-id>
    repro-submit health
    repro-submit metrics

``repro-worker`` (see :mod:`repro.service.worker`) joins a
``--distributed`` coordinator's fleet::

    repro-serve --distributed --cache-dir cache --journal j.jsonl
    repro-worker --url http://127.0.0.1:8642 --processes 2

All three are also reachable without installation:
``python -m repro.service.cli {serve|submit|worker} ...``.
"""
from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.version import __version__


# -- repro-serve -------------------------------------------------------------


def _build_serve_parser() -> argparse.ArgumentParser:
    from repro.cli import positive

    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Run the repro simulation service: a JSON-over-HTTP job queue "
            "in front of the sweep engine and its result cache."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8642, help="TCP port (0 = ephemeral)"
    )
    parser.add_argument(
        "--port-file",
        metavar="PATH",
        default=None,
        help="write 'host port' of the bound socket to PATH (for scripts "
        "that start the server with --port 0)",
    )
    parser.add_argument(
        "--workers",
        type=positive(int),
        default=2,
        help="worker threads (default: 2); they overlap jobs and cache/HTTP "
        "waits, but simulations are pure Python and share one GIL, so "
        "threads add no CPU parallelism",
    )
    parser.add_argument(
        "--processes",
        type=positive(int),
        default=1,
        metavar="N",
        help="engine processes per worker thread (default: 1); CPU "
        "parallelism comes from this or from a repro-worker fleet, not "
        "from --workers",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="shared content-addressed result cache (warm entries resolve "
        "jobs without simulating)",
    )
    parser.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help="JSONL job journal; pending/running jobs are re-enqueued when "
        "a server restarts on the same journal",
    )
    parser.add_argument(
        "--queue-depth",
        type=positive(int, zero=True),
        default=64,
        metavar="N",
        help="max pending jobs before submissions get 429 (default: 64; "
        "0 = no bound)",
    )
    parser.add_argument(
        "--max-inflight",
        type=positive(int, zero=True),
        default=8,
        metavar="N",
        help="max pending+running jobs per client (default: 8; 0 = no bound)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="in-parent retries per failed simulation (default: 1)",
    )
    parser.add_argument(
        "--grace",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="drain grace: how long running jobs may finish after "
        "SIGTERM/SIGINT before being checkpointed (default: 30)",
    )
    parser.add_argument(
        "--distributed",
        action="store_true",
        help="coordinator mode: jobs are sharded onto pull-based "
        "repro-worker fleets instead of local threads (needs --cache-dir)",
    )
    parser.add_argument(
        "--lease-ttl",
        type=positive(float),
        default=10.0,
        metavar="SECONDS",
        help="how long a silent worker holds a shard before it is "
        "requeued (default: 10)",
    )
    parser.add_argument(
        "--shard-size",
        type=positive(int),
        default=4,
        metavar="N",
        help="max scenarios per shard, the unit a worker claims (default: 4)",
    )
    parser.add_argument(
        "--no-trace",
        action="store_true",
        help="disable fleet tracing (no spans recorded, journaled, or "
        "served from /v1/jobs/<id>/trace)",
    )
    parser.add_argument(
        "--flight-dir",
        metavar="DIR",
        default=None,
        help="arm a flight recorder per locally-executed simulation: a "
        "crash dumps its last trace records to DIR",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    return parser


def serve_main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_serve_parser().parse_args(argv)
    from repro.devtools import lockdep

    if not lockdep.env_enabled():
        return _run_serve(args)
    # REPRO_LOCKDEP=1: witness every lock acquisition for the server's
    # whole life; any ordering/blocking violation fails the process.
    try:
        with lockdep.witness(strict=True):
            return _run_serve(args)
    except lockdep.LockOrderViolation as exc:
        print(f"repro-serve: {exc}", file=sys.stderr, flush=True)
        return 1


def _run_serve(args: argparse.Namespace) -> int:
    from repro.obs.fleet import FleetTracer
    from repro.obs.slog import StructuredLogger
    from repro.service.core import SimulationService
    from repro.service.http import ServiceHTTPServer

    log = StructuredLogger("serve")
    task_fn = None
    if args.flight_dir is not None:
        from repro.obs.flight import FlightRecordingTaskFn

        task_fn = FlightRecordingTaskFn(args.flight_dir)
    service = SimulationService(
        workers=args.workers,
        cache_dir=args.cache_dir,
        journal_path=args.journal,
        max_queue_depth=args.queue_depth,
        max_inflight_per_client=args.max_inflight,
        processes=args.processes,
        retries=args.retries,
        task_fn=task_fn,
        distributed=args.distributed,
        lease_ttl_s=args.lease_ttl,
        shard_size=args.shard_size,
        tracer=FleetTracer(proc="coordinator", enabled=not args.no_trace),
    )
    recovered = [job for job in service.jobs() if job.recovered]
    if recovered:
        log.info(
            "journal.recovered",
            count=len(recovered),
            message=f"recovered {len(recovered)} unfinished job(s) from the journal",
        )
    httpd = ServiceHTTPServer((args.host, args.port), service, verbose=args.verbose)
    service.start()

    address = f"http://{args.host}:{httpd.port}"
    if args.port_file:
        with open(args.port_file, "w", encoding="utf-8") as handle:
            handle.write(f"{args.host} {httpd.port}\n")
    print(f"repro-serve {__version__} listening on {address}", flush=True)

    drain_signal = _DrainSignal(args.grace)
    signal.signal(signal.SIGTERM, drain_signal)
    signal.signal(signal.SIGINT, drain_signal)

    server_thread = threading.Thread(
        target=httpd.serve_forever, name="repro-serve-http", daemon=True
    )
    server_thread.start()
    try:
        while not drain_signal.received:
            time.sleep(0.2)
    finally:
        httpd.shutdown()
        summary = service.drain(grace_s=args.grace)
        log.info(
            "drained",
            finished=summary["finished"],
            checkpointed=summary["checkpointed"],
            pending=summary["pending"],
            message=f"drained: {summary['finished']} finished, "
            f"{summary['checkpointed']} checkpointed, "
            f"{summary['pending']} still pending (journaled)",
        )
    return 0


class _DrainSignal:
    """The SIGTERM/SIGINT handler: raises a flag the main loop polls.

    It runs on the main thread, in the middle of whatever that thread was
    doing, so it takes no lock: ``print``, not the logger, and a plain
    attribute, not a ``threading.Event`` whose ``set`` would deadlock
    against the ``wait`` it interrupted (both take the event's lock).
    """

    def __init__(self, grace_s: float) -> None:
        self.grace_s = grace_s
        self.received = False

    def __call__(self, signum: int, _frame: Any) -> None:
        print(
            f"signal {signal.Signals(signum).name}: draining "
            f"(grace {self.grace_s:g}s)",
            file=sys.stderr,
            flush=True,
        )
        self.received = True


# -- repro-submit ------------------------------------------------------------


def _build_submit_parser() -> argparse.ArgumentParser:
    from repro.cli import parse_seeds, positive
    from repro.core.config import PAPER_VARIANTS
    from repro.scenarios.presets import PRESETS

    parser = argparse.ArgumentParser(
        prog="repro-submit",
        description="Submit and track jobs on a running repro-serve instance.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--url",
        default="http://127.0.0.1:8642",
        help="service base URL (default: http://127.0.0.1:8642)",
    )
    parser.add_argument(
        "--client",
        default="repro-submit",
        help="client id for per-client admission limits",
    )
    parser.add_argument(
        "--timeout", type=positive(float), default=30.0, help="per-request timeout (s)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    submit = sub.add_parser("submit", help="submit scenario(s) as one job")
    submit.add_argument(
        "--config",
        action="append",
        default=None,
        metavar="PATH",
        help="scenario JSON file (repeatable; from repro-run --save-config)",
    )
    submit.add_argument("--preset", choices=tuple(PRESETS), default=None)
    submit.add_argument("--variant", choices=sorted(PAPER_VARIANTS), default="DSR")
    submit.add_argument("--pause-time", type=float, default=0.0)
    submit.add_argument("--packet-rate", type=float, default=3.0)
    submit.add_argument("--duration", type=float, default=None)
    submit.add_argument("--seed", type=int, default=1)
    submit.add_argument(
        "--seeds",
        type=parse_seeds,
        default=None,
        metavar="S1,S2,...",
        help="submit one scenario per seed (overrides --seed)",
    )
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument(
        "--wait", action="store_true", help="block until the job finishes"
    )
    submit.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="with --wait: write the fetched result payloads to PATH",
    )

    for name, help_text in (
        ("status", "print one job's status"),
        ("wait", "poll until the job is terminal"),
        ("fetch", "wait, then print the job's aggregated metrics"),
        ("trace", "print the job's merged span trace as JSON "
         "(pipe into 'repro-trace job -')"),
        ("cancel", "cancel a pending job / delete a terminal record"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("job_id")
        if name in ("wait", "fetch"):
            cmd.add_argument(
                "--job-timeout",
                type=float,
                default=None,
                metavar="SECONDS",
                help="give up waiting after this long",
            )
        if name == "fetch":
            cmd.add_argument(
                "--json",
                metavar="PATH",
                default=None,
                help="also write the result payloads to PATH",
            )

    sub.add_parser("health", help="print the service health document")
    sub.add_parser("metrics", help="print the /metrics exposition")
    sub.add_parser("jobs", help="list all jobs the service knows")
    return parser


def _scenarios_from_args(args: argparse.Namespace) -> List[Dict[str, Any]]:
    from repro.core.config import PAPER_VARIANTS
    from repro.scenarios.io import load_scenario, scenario_to_dict
    from repro.scenarios.presets import preset_scenario

    if args.config:
        return [scenario_to_dict(load_scenario(path)) for path in args.config]
    if args.preset is None:
        raise SystemExit("error: provide --config FILE or --preset")
    dsr = PAPER_VARIANTS[args.variant]
    return [
        scenario_to_dict(
            preset_scenario(
                args.preset, dsr, args.pause_time, args.packet_rate, seed, args.duration
            )
        )
        for seed in args.seeds or [args.seed]
    ]


def _print_results(results: List[Any], json_path: Optional[str]) -> None:
    from repro.analysis.cache import result_to_payload
    from repro.analysis.stats import aggregate

    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump([result_to_payload(r) for r in results], handle, sort_keys=True)
        print(f"results written          : {json_path}", file=sys.stderr)
    if len(results) == 1:
        [result] = results
        print(f"packet delivery fraction : {result.packet_delivery_fraction:.4f}")
        print(f"average delay (s)        : {result.average_delay:.4f}")
        print(f"normalized overhead      : {result.normalized_overhead:.2f}")
        print(f"throughput (kb/s)        : {result.throughput_kbps:.1f}")
        return
    agg = aggregate(results)

    def line(label: str, metric: str) -> None:
        print(
            f"{label:<25}: {agg.means[metric]:.4f} "
            f"+/- {agg.half_widths[metric]:.4f}"
        )

    print(f"scenarios                : {len(results)}")
    line("packet delivery fraction", "pdf")
    line("average delay (s)", "delay")
    line("normalized overhead", "overhead")
    line("throughput (kb/s)", "throughput_kbps")


def submit_main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_submit_parser().parse_args(argv)
    from repro.service.client import (
        JobFailedError,
        QueueFullError,
        ServiceClient,
        ServiceError,
    )

    client = ServiceClient(args.url, client_id=args.client, timeout=args.timeout)
    try:
        if args.command == "submit":
            scenarios = _scenarios_from_args(args)
            job_id = client.submit(scenarios, priority=args.priority)
            print(f"job {job_id} submitted ({len(scenarios)} scenario(s))")
            if args.wait:
                status = client.wait(job_id, on_progress=_progress_line)
                if status.get("state") != "done":
                    print(
                        f"job {job_id} ended {status.get('state')}: "
                        f"{status.get('error')}",
                        file=sys.stderr,
                    )
                    return 1
                _print_results(client.results(job_id), args.json)
        elif args.command == "status":
            _print_doc(client.status(args.job_id))
        elif args.command == "wait":
            status = client.wait(args.job_id, timeout=args.job_timeout)
            _print_doc(status)
            return 0 if status.get("state") == "done" else 1
        elif args.command == "fetch":
            results = client.fetch(args.job_id, timeout=args.job_timeout)
            _print_results(results, args.json)
        elif args.command == "trace":
            _print_doc(client.job_trace(args.job_id))
        elif args.command == "cancel":
            _print_doc(client.cancel(args.job_id))
        elif args.command == "health":
            _print_doc(client.health())
        elif args.command == "metrics":
            print(client.metrics_text(), end="")
        elif args.command == "jobs":
            for job in client.list_jobs():
                print(
                    f"{job['id']}  {job['state']:<9}  "
                    f"{job['progress']['completed']}/{job['progress']['total']}  "
                    f"client={job['client']}"
                )
    except QueueFullError as exc:
        print(
            f"error: {exc} (retry after {exc.retry_after_s:g}s)", file=sys.stderr
        )
        return 3
    except JobFailedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _print_doc(payload: Dict[str, Any]) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _progress_line(status: Dict[str, Any]) -> None:
    progress = status.get("progress") or {}
    print(
        f"  {status.get('state'):<8} "
        f"{progress.get('completed', 0)}/{progress.get('total', 0)} done, "
        f"{progress.get('executed', 0)} simulated, "
        f"{progress.get('cached', 0)} cached, "
        f"{progress.get('deduped', 0)} deduped",
        file=sys.stderr,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.service.cli {serve|submit|worker} ...`` dispatcher."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in ("serve", "submit", "worker"):
        print(
            "usage: python -m repro.service.cli {serve|submit|worker} [options]",
            file=sys.stderr,
        )
        return 2
    if argv[0] == "serve":
        return serve_main(argv[1:])
    if argv[0] == "worker":
        from repro.service.worker import main as worker_main

        return worker_main(argv[1:])
    return submit_main(argv[1:])


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
