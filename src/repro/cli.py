"""Command-line entry point: ``repro-run``.

Runs one scenario and prints the paper's metrics, e.g.::

    repro-run --preset scaled --variant AllTechniques --pause-time 0 --seed 3
    repro-run --preset paper --variant DSR --packet-rate 3
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.core.config import PAPER_VARIANTS, DsrConfig, ExpiryMode
from repro.errors import ConfigurationError
from repro.phy.profiles import profile_names
from repro.scenarios import presets
from repro.scenarios.config import ScenarioConfig
from repro.version import __version__


def parse_seeds(text: str) -> List[int]:
    """``--seeds S1,S2,...`` as an argparse ``type=`` (``repro-submit`` shares
    it): a bad seed, or none, is a usage error naming the flag, not a
    traceback."""
    try:
        seeds = [int(chunk) for chunk in text.split(",") if chunk.strip()]
    except ValueError:
        seeds = []
    if not seeds:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        )
    return seeds


def positive(kind=float, zero=False):
    """An argparse ``type=`` for a finite number above zero (or at least
    zero, with ``zero=True``), parsed by ``kind``: anything lower or a
    non-number is a usage error naming the flag, raised before anything is
    built."""
    sign = "non-negative" if zero else "positive"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        finite = value is not None and value < float("inf")
        if not finite or not (0 <= value if zero else 0 < value):
            raise argparse.ArgumentTypeError(
                f"expected a {sign} {kind.__name__}, got {text!r}"
            )
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-run",
        description=(
            "Run one DSR route-caching simulation (Marina & Das, ICDCS 2001 "
            "reproduction) and print the paper's metrics."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "--preset",
        choices=tuple(presets.PRESETS),
        default="scaled",
        help="scenario scale (default: scaled; 'paper' is the full 100-node setup)",
    )
    parser.add_argument(
        "--variant",
        choices=sorted(PAPER_VARIANTS),
        default="DSR",
        help="protocol variant from the paper's evaluation (default: DSR)",
    )
    parser.add_argument("--pause-time", type=float, default=0.0, help="seconds (0 = constant mobility)")
    parser.add_argument("--packet-rate", type=float, default=3.0, help="packets/s per CBR session")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seeds",
        type=parse_seeds,
        default=None,
        metavar="S1,S2,...",
        help="run several seeds and report means with 95%% CIs (overrides --seed)",
    )
    parser.add_argument(
        "--static-timeout",
        type=float,
        default=None,
        help="use a static route expiry timeout of this many seconds",
    )
    parser.add_argument("--duration", type=float, default=None, help="override simulated seconds")
    parser.add_argument(
        "--protocol",
        choices=("dsr", "aodv"),
        default="dsr",
        help="routing protocol (aodv ignores --variant)",
    )
    parser.add_argument(
        "--mobility",
        choices=("waypoint", "gauss_markov", "rpgm", "random_walk"),
        default="waypoint",
        help="mobility model (default: the paper's random waypoint)",
    )
    parser.add_argument(
        "--grey-zone",
        type=float,
        default=0.0,
        metavar="FRACTION",
        help="lossy outer fraction of the radio range (0 = ideal disk)",
    )
    parser.add_argument(
        "--radio-profile",
        choices=profile_names(),
        default="wavelan",
        help=(
            "radio technology profile (geometry, bitrate, timing, energy, "
            "loss shape, capture; default: the paper's wavelan)"
        ),
    )
    parser.add_argument(
        "--link-loss",
        type=float,
        default=0.0,
        metavar="P",
        help=(
            "distance-independent frame-loss probability layered on the "
            "profile's own loss shape (0 = profile default)"
        ),
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the full result record as JSON to PATH",
    )
    parser.add_argument(
        "--processes",
        type=positive(int),
        default=None,
        metavar="N",
        help=(
            "worker processes for multi-seed runs (default: all cores; "
            "1 forces in-process execution for debugging)"
        ),
    )
    parser.add_argument(
        "--neighbor-index",
        choices=("auto", "allpairs", "grid"),
        default="auto",
        help=(
            "spatial index behind the neighbour cache: 'auto' picks the "
            "uniform-grid cell list at large node counts, the all-pairs "
            "matrix below; metrics are bit-identical either way"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help=(
            "content-addressed result cache directory: runs already in the "
            "cache are loaded instead of simulated"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore --cache-dir (always simulate, never read or write the cache)",
    )
    parser.add_argument(
        "--cache-prune",
        metavar="SPEC",
        default=None,
        help=(
            "after the run, garbage-collect --cache-dir to the given bounds: "
            "a size ('500MB', '1GiB'), an age ('7d', '12h'), or both "
            "('1GiB,30d'); least-recently-used entries are evicted first"
        ),
    )
    obs = parser.add_argument_group(
        "observability",
        "trace/metrics/profiling outputs for a single run (not --seeds); "
        "simulation metrics are bit-identical with these on or off",
    )
    obs.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write every trace record to PATH as jsonl (inspect with repro-trace)",
    )
    obs.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write a per-interval metrics timeseries to PATH "
        "(.csv suffix selects CSV, else JSONL)",
    )
    obs.add_argument(
        "--metrics-interval",
        type=positive(float),
        default=5.0,
        metavar="SECONDS",
        help="timeseries interval in simulated seconds (default: 5)",
    )
    obs.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile; calls by cumulative time printed to stderr",
    )
    obs.add_argument(
        "--flight-recorder",
        metavar="PATH",
        default=None,
        help="keep a ring of recent trace records and dump it to PATH "
        "(always on exit, and on a crash with the context that led to it)",
    )
    obs.add_argument(
        "--flight-capacity",
        type=positive(int),
        default=512,
        metavar="N",
        help="flight recorder ring size (default: 512)",
    )
    parser.add_argument(
        "--config",
        metavar="PATH",
        default=None,
        help="load the complete scenario from a JSON file (overrides every other scenario flag)",
    )
    parser.add_argument(
        "--save-config",
        metavar="PATH",
        default=None,
        help="write the effective scenario to a JSON file (reload with --config)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _scenario(args)
    except ConfigurationError as exc:
        # A value the scenario refuses is a usage error, like a bad flag.
        parser.error(str(exc))
    return _run_and_report(args, config)


def _scenario(args) -> ScenarioConfig:
    """The scenario ``--config`` or the scenario flags describe."""
    if args.config is not None:
        from repro.scenarios.io import load_scenario

        return load_scenario(args.config)

    dsr: DsrConfig = PAPER_VARIANTS[args.variant]
    if args.static_timeout is not None:
        dsr = dsr.but(expiry_mode=ExpiryMode.STATIC, static_timeout=args.static_timeout)

    return presets.preset_scenario(
        args.preset, dsr, args.pause_time, args.packet_rate, args.seed, args.duration
    ).but(
        protocol=args.protocol,
        mobility_model=args.mobility,
        grey_zone_fraction=args.grey_zone,
        neighbor_index=args.neighbor_index,
        radio_profile=args.radio_profile,
        link_loss=args.link_loss,
    )


def _run_and_report(args, config) -> int:
    from repro.analysis.runner import SweepInterrupted
    from repro.scenarios.checks import check_scenario

    prune_bounds = None
    if args.cache_prune is not None:
        if args.no_cache or args.cache_dir is None:
            print(
                "error: --cache-prune needs an effective cache "
                "(give --cache-dir, drop --no-cache)",
                file=sys.stderr,
            )
            return 2
        from repro.analysis.cache import parse_prune_spec

        try:
            prune_bounds = parse_prune_spec(args.cache_prune)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    for warning in check_scenario(config):
        print(f"warning: {warning}", file=sys.stderr)

    if args.save_config is not None:
        from repro.scenarios.io import save_scenario

        path = save_scenario(config, args.save_config)
        print(f"scenario written         : {path}", file=sys.stderr)

    print(
        f"Running {config.protocol} | {config.num_nodes} nodes, "
        f"{config.field_width:g}x{config.field_height:g} m, "
        f"{config.duration:g} s, pause {config.pause_time:g} s, "
        f"{config.num_sessions} sessions @ {config.packet_rate:g} pkt/s, "
        f"seed {config.seed}",
        file=sys.stderr,
    )

    obs_requested = bool(
        args.trace or args.metrics or args.profile or args.flight_recorder
    )
    if args.seeds:
        if obs_requested:
            print(
                "error: --trace/--metrics/--profile/--flight-recorder observe "
                "one run and cannot be combined with --seeds",
                file=sys.stderr,
            )
            return 2
        engine = _build_engine(args)
        try:
            code = _run_seed_average(args, config, args.seeds, engine)
        except SweepInterrupted as exc:
            print(f"interrupted: {exc}", file=sys.stderr)
            return 130
        _maybe_prune(args, prune_bounds)
        return code

    if obs_requested:
        result = _run_observed(args, config)
    else:
        engine = _build_engine(args)
        try:
            [result] = engine.run_results([config])
        except SweepInterrupted as exc:
            print(f"interrupted: {exc}", file=sys.stderr)
            return 130
        _report_engine(engine, file=sys.stderr)

    print(f"packet delivery fraction : {result.packet_delivery_fraction:.4f}")
    print(f"average delay (s)        : {result.average_delay:.4f}")
    print(f"normalized overhead      : {result.normalized_overhead:.2f}")
    print(f"throughput (kb/s)        : {result.throughput_kbps:.1f}")
    print(f"good replies (%)         : {result.pct_good_replies:.1f}")
    print(f"invalid cached routes (%): {result.pct_invalid_cache_hits:.1f}")
    print(f"data sent/received       : {result.data_sent}/{result.data_received}")
    print(f"link breaks              : {result.link_breaks}")
    print(f"route requests sent      : {result.rreq_sent}")
    if args.json is not None:
        from repro.analysis.export import result_to_json

        path = result_to_json(result, args.json)
        print(f"result written           : {path}", file=sys.stderr)
    _maybe_prune(args, prune_bounds)
    return 0


def _run_observed(args, config):
    """Run one scenario in-process with the observers the flags ask for.

    The observers only subscribe/sample, and ``--profile`` wraps the run in
    the stdlib ``cProfile``, so metrics are bit-identical to the unobserved
    engine path for the same scenario.
    """
    import contextlib

    from repro.scenarios.builder import build_simulation
    from repro.sim.tracefile import TraceFileWriter

    handle = build_simulation(config)
    interval = None
    if args.metrics:
        from repro.obs.interval import IntervalMetrics

        interval = IntervalMetrics(args.metrics_interval).attach(handle)
    flight = None
    armed = contextlib.nullcontext()
    if args.flight_recorder:
        from repro.obs.flight import FlightRecorder

        flight = FlightRecorder(handle.tracer, args.flight_capacity)
        armed = flight.armed(args.flight_recorder)
    writer = None
    if args.trace:
        writer = TraceFileWriter(handle.tracer, args.trace)
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
    try:
        with armed:
            result = handle.run() if profiler is None else profiler.runcall(handle.run)
    except BaseException:
        if args.flight_recorder:
            print(f"flight recorder dump    : {args.flight_recorder}", file=sys.stderr)
        raise
    finally:
        if writer is not None:
            writer.close()

    if args.trace:
        print(
            f"trace written            : {args.trace} "
            f"({writer.records_written} records)",
            file=sys.stderr,
        )
    if interval is not None:
        interval.finish()
        if str(args.metrics).endswith(".csv"):
            interval.export_csv(args.metrics)
        else:
            interval.export_jsonl(args.metrics)
        print(
            f"metrics written          : {args.metrics} "
            f"({len(interval.rows)} intervals)",
            file=sys.stderr,
        )
    if flight is not None:
        flight.dump(args.flight_recorder)
        print(f"flight recorder          : {args.flight_recorder}", file=sys.stderr)
    if profiler is not None:
        import pstats

        pstats.Stats(profiler, stream=sys.stderr).sort_stats("cumulative").print_stats(12)
    return result


def _build_engine(args):
    from repro.analysis.runner import SweepEngine

    cache_dir = None if getattr(args, "no_cache", False) else args.cache_dir
    return SweepEngine.create(processes=args.processes, cache_dir=cache_dir)


def _maybe_prune(args, prune_bounds) -> None:
    """Post-run cache GC for ``--cache-prune`` (no-op when not requested)."""
    if prune_bounds is None:
        return
    from repro.analysis.cache import ResultCache

    max_bytes, max_age_s = prune_bounds
    report = ResultCache(args.cache_dir).prune(
        max_bytes=max_bytes, max_age_s=max_age_s
    )
    print(f"cache gc                 : {report.summary()}", file=sys.stderr)


def _report_engine(engine, file) -> None:
    if engine.cache is None:
        return
    stats = engine.cache.stats
    print(
        f"result cache             : {stats.hits} hit(s), {stats.misses} "
        f"miss(es), {stats.stores} stored",
        file=file,
    )


def _run_seed_average(args, config, seeds, engine) -> int:
    from repro.analysis.stats import aggregate

    results = engine.run_results([config.but(seed=seed) for seed in seeds])
    agg = aggregate(results)
    _report_engine(engine, file=sys.stderr)

    def line(label, metric, scale=1.0, unit=""):
        mean = agg.means[metric] * scale
        half = agg.half_widths[metric] * scale
        print(f"{label:<25}: {mean:.4f} +/- {half:.4f}{unit}")

    print(f"seeds                    : {seeds}")
    line("packet delivery fraction", "pdf")
    line("average delay (s)", "delay")
    line("normalized overhead", "overhead")
    line("throughput (kb/s)", "throughput_kbps")
    line("good replies (%)", "good_replies_pct")
    line("invalid cached routes (%)", "invalid_cache_pct")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
