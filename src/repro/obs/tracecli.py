"""Command-line trace inspection: ``repro-trace``.

Reads the one trace-file format (jsonl: ``TraceFileWriter`` output,
``repro-run --trace``, flight-recorder dumps); anything else is refused
with ``path:line: not a jsonl trace record``::

    repro-trace summarize run.jsonl
    repro-trace filter run.jsonl --kind dsr.link_break --since 20 --until 60
    repro-trace filter run.jsonl --node 17 --format jsonl
    repro-trace timeseries run.jsonl --interval 5 --kinds app.send,app.recv

``summarize`` prints per-kind record counts and the time span;
``filter`` re-emits matching records, rendered as greppable
``time kind key=value ...`` text lines (the default) or as jsonl for piping;
``timeseries`` counts records of each kind per virtual-time bin — raw
record counts, not the result's counters that ``repro-run --metrics``
samples.

``job`` is the fleet side: it reads one job's merged *span* trace
(:mod:`repro.obs.fleet`) from a JSON file or stdin (``-``) and prints the
"where did the time go" explainer — a text Gantt of every span, per-kind
and per-worker breakdowns with the straggler flagged, and the critical
path that kept the job's completion waiting::

    repro-submit trace <id> | repro-trace job -
    repro-trace job trace.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.sim.tracefile import iter_records, render_jsonl

#: Field names that identify "the node" of a record, in match priority order.
_NODE_FIELDS = ("node", "src", "dst", "sender", "next_hop")


def _build_parser() -> argparse.ArgumentParser:
    from repro.cli import positive
    from repro.version import __version__

    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Inspect simulation trace files written by TraceFileWriter.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    summarize = sub.add_parser(
        "summarize", help="record counts per kind, time span, drop reasons"
    )
    summarize.add_argument("path", help="trace file (jsonl)")
    summarize.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )

    filter_cmd = sub.add_parser("filter", help="re-emit records matching predicates")
    filter_cmd.add_argument("path", help="trace file (jsonl)")
    filter_cmd.add_argument(
        "--kind",
        action="append",
        default=None,
        metavar="KIND",
        help="keep only this record kind (repeatable)",
    )
    filter_cmd.add_argument("--since", type=float, default=None, metavar="T")
    filter_cmd.add_argument("--until", type=float, default=None, metavar="T")
    filter_cmd.add_argument(
        "--node",
        type=int,
        default=None,
        metavar="N",
        help="keep records touching node N (node/src/dst/sender/next_hop)",
    )
    filter_cmd.add_argument(
        "--format",
        choices=("text", "jsonl"),
        default="text",
        dest="out_format",
        help="output rendering (default: text)",
    )

    timeseries = sub.add_parser(
        "timeseries", help="per-interval record counts by kind"
    )
    timeseries.add_argument("path", help="trace file (jsonl)")
    timeseries.add_argument(
        "--interval", type=positive(float), default=5.0, metavar="SECONDS"
    )
    timeseries.add_argument(
        "--kinds",
        default=None,
        metavar="K1,K2,...",
        help="column kinds (default: every kind present, sorted)",
    )
    timeseries.add_argument(
        "--format",
        choices=("text", "csv"),
        default="text",
        dest="out_format",
        help="output rendering (default: aligned text table)",
    )

    job = sub.add_parser(
        "job", help="explain one job's fleet span trace (where did the time go)"
    )
    job.add_argument(
        "source",
        help="trace JSON (the GET /v1/jobs/<id>/trace document): a file, "
        "or '-' for stdin",
    )
    job.add_argument(
        "--json",
        action="store_true",
        help="emit the computed breakdown as JSON instead of text",
    )
    job.add_argument(
        "--width",
        type=int,
        default=60,
        metavar="COLS",
        help="Gantt bar width in characters (default: 60)",
    )
    job.add_argument(
        "--max-spans",
        type=int,
        default=40,
        metavar="N",
        help="Gantt rows before folding the rest into a summary line "
        "(default: 40; breakdowns always cover every span)",
    )
    return parser


def _records(path: str) -> Iterator[Dict[str, Any]]:
    """``iter_records`` that tells the user when it skipped a torn tail."""
    torn = yield from iter_records(path)
    if torn:
        print(f"{torn} torn trailing line skipped", file=sys.stderr)


# -- summarize -------------------------------------------------------------


def _summarize(path: str, as_json: bool) -> int:
    counts: Dict[str, int] = {}
    drop_reasons: Dict[str, int] = {}
    t_min: Optional[float] = None
    t_max: Optional[float] = None
    total = 0
    for record in _records(path):
        total += 1
        kind = record["kind"]
        counts[kind] = counts.get(kind, 0) + 1
        t = record["t"]
        t_min = t if t_min is None or t < t_min else t_min
        t_max = t if t_max is None or t > t_max else t_max
        if kind.endswith(".drop") and "reason" in record:
            reason = str(record["reason"])
            drop_reasons[reason] = drop_reasons.get(reason, 0) + 1
    ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    if as_json:
        print(
            json.dumps(
                {
                    "path": path,
                    "records": total,
                    "t_min": t_min,
                    "t_max": t_max,
                    "kinds": dict(ordered),
                    "drop_reasons": dict(
                        sorted(drop_reasons.items(), key=lambda i: (-i[1], i[0]))
                    ),
                },
                indent=2,
            )
        )
        return 0
    print(f"trace    : {path}")
    print(f"records  : {total}")
    if total:
        print(f"span     : {t_min:.6f} .. {t_max:.6f} s")
        print("kinds    :")
        width = max(len(kind) for kind, _count in ordered)
        for kind, count in ordered:
            print(f"  {kind:<{width}}  {count}")
    if drop_reasons:
        print("drops    :")
        for reason, count in sorted(drop_reasons.items(), key=lambda i: (-i[1], i[0])):
            print(f"  {reason}  {count}")
    return 0


# -- filter ----------------------------------------------------------------


def _matches(
    record: Dict[str, Any],
    kinds: Optional[Sequence[str]],
    since: Optional[float],
    until: Optional[float],
    node: Optional[int],
) -> bool:
    if kinds is not None and record["kind"] not in kinds:
        return False
    t = record["t"]
    if since is not None and t < since:
        return False
    if until is not None and t > until:
        return False
    if node is not None and not any(
        record.get(field) == node for field in _NODE_FIELDS
    ):
        return False
    return True


def render_text(record: Dict[str, Any]) -> str:
    """Record dict -> the ``12.081672 mac.tx dst=31 node=17`` line for eyes and grep."""
    fields = " ".join(
        f"{key}={value}"
        for key, value in sorted(record.items())
        if key not in ("t", "kind")
    )
    return f"{record['t']:.6f} {record['kind']} {fields}".rstrip()


def _filter(args: argparse.Namespace) -> int:
    render = render_jsonl if args.out_format == "jsonl" else render_text
    kinds = list(args.kind) if args.kind else None
    matched = 0
    for record in _records(args.path):
        if _matches(record, kinds, args.since, args.until, args.node):
            print(render(record))
            matched += 1
    print(f"{matched} record(s) matched", file=sys.stderr)
    return 0


# -- timeseries ------------------------------------------------------------


def _timeseries(args: argparse.Namespace) -> int:
    wanted: Optional[List[str]] = None
    if args.kinds:
        wanted = [k for k in args.kinds.split(",") if k]
    bins: Dict[int, Dict[str, int]] = {}
    seen_kinds: set = set()
    last_bin = -1
    for record in _records(args.path):
        kind = record["kind"]
        if wanted is not None and kind not in wanted:
            continue
        index = int(record["t"] // args.interval)
        row = bins.setdefault(index, {})
        row[kind] = row.get(kind, 0) + 1
        seen_kinds.add(kind)
        last_bin = max(last_bin, index)
    columns = wanted if wanted is not None else sorted(seen_kinds)
    rows: Iterable[int] = range(0, last_bin + 1)
    if args.out_format == "csv":
        print(",".join(["t_start", "t_end", *columns]))
        for index in rows:
            counts = bins.get(index, {})
            cells = [f"{index * args.interval:g}", f"{(index + 1) * args.interval:g}"]
            cells += [str(counts.get(kind, 0)) for kind in columns]
            print(",".join(cells))
        return 0
    if not columns:
        print("no records matched")
        return 0
    widths = [max(len(kind), 8) for kind in columns]
    header = f"{'t_start':>10} {'t_end':>10}  " + " ".join(
        f"{kind:>{w}}" for kind, w in zip(columns, widths)
    )
    print(header)
    for index in rows:
        counts = bins.get(index, {})
        line = f"{index * args.interval:>10g} {(index + 1) * args.interval:>10g}  "
        line += " ".join(
            f"{counts.get(kind, 0):>{w}}" for kind, w in zip(columns, widths)
        )
        print(line)
    return 0


# -- job (fleet span traces) -------------------------------------------------


def _load_job_trace(source: str) -> Dict[str, Any]:
    """Read a job trace document from a file or stdin.

    Accepts the ``GET /v1/jobs/<id>/trace`` document, a bare JSON list of
    span dicts, or span-per-line JSONL; always returns a
    ``{"id", "trace_id", "spans"}``-shaped dict.
    """
    if source == "-":
        text = sys.stdin.read()
    else:
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    text = text.strip()
    if not text:
        return {"id": None, "trace_id": None, "spans": []}
    try:
        blob: Any = json.loads(text)
    except ValueError:
        blob = [json.loads(line) for line in text.splitlines() if line.strip()]
    if isinstance(blob, list):
        blob = {"id": None, "trace_id": None, "spans": blob}
    if not isinstance(blob, dict) or not isinstance(blob.get("spans"), list):
        raise ValueError("not a job trace (expected a 'spans' list)")
    spans = [span for span in blob["spans"] if isinstance(span, dict)]
    return {"id": blob.get("id"), "trace_id": blob.get("trace_id"), "spans": spans}


def _gantt_rows(
    spans: List[Dict[str, Any]], width: int, max_spans: int
) -> List[str]:
    from repro.obs.fleet import find_root

    root = find_root(spans)
    if root is None or root.get("end") is None:
        return ["  (no finished root span; nothing to draw)"]
    lo = float(root["start"])
    hi = max(
        [float(root["end"])]
        + [float(s["end"]) for s in spans if s.get("end") is not None]
    )
    wall = max(hi - lo, 1e-9)
    drawn = sorted(
        (s for s in spans if s.get("end") is not None),
        key=lambda s: (float(s.get("start", 0.0)), str(s.get("span_id"))),
    )
    folded = 0
    if len(drawn) > max_spans:
        folded = len(drawn) - max_spans
        drawn = drawn[:max_spans]
    kind_w = max((len(str(s.get("kind", "?"))) for s in drawn), default=4)
    proc_w = max((len(str(s.get("proc", "?"))) for s in drawn), default=4)
    rows = []
    for span in drawn:
        start = float(span.get("start", lo))
        end = float(span["end"])
        left = int(round((max(start, lo) - lo) / wall * width))
        right = int(round((min(end, hi) - lo) / wall * width))
        right = max(right, left + 1)  # a short span still gets one cell
        bar = " " * left + "#" * (right - left) + " " * (width - right)
        rows.append(
            f"  {str(span.get('kind', '?')):<{kind_w}} "
            f"{str(span.get('proc', '?')):<{proc_w}} "
            f"|{bar[:width]}| {end - start:9.4f}s"
        )
    if folded:
        rows.append(f"  ... {folded} more span(s) not drawn (--max-spans)")
    return rows


def _job(args: argparse.Namespace) -> int:
    from repro.obs.fleet import critical_path, trace_breakdown, validate_spans

    doc = _load_job_trace(args.source)
    spans = doc["spans"]
    breakdown = trace_breakdown(spans)
    path = critical_path(spans)
    problems = validate_spans(spans)
    if args.json:
        print(
            json.dumps(
                {
                    "id": doc["id"],
                    "trace_id": doc["trace_id"],
                    "spans": len(spans),
                    "breakdown": breakdown,
                    "critical_path": path,
                    "problems": problems,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    coverage = breakdown["coverage"]
    wall = coverage["root_s"]
    if doc["id"]:
        print(f"job      : {doc['id']}")
    if doc["trace_id"]:
        print(f"trace    : {doc['trace_id']}")
    print(f"spans    : {len(spans)} from {len(coverage['procs'])} process(es): "
          + ", ".join(coverage["procs"]))
    print(f"wall     : {wall:.4f} s   covered: {coverage['covered_s']:.4f} s "
          f"({coverage['coverage']:.1%})")
    for problem in problems:
        print(f"problem  : {problem}")
    if not spans:
        return 0
    width = max(10, args.width)
    print()
    print(f"gantt ({wall:.4f} s wall):")
    for row in _gantt_rows(spans, width, max(1, args.max_spans)):
        print(row)
    print()
    print("where did the time go (by stage):")
    by_kind = breakdown["by_kind"]
    kind_w = max(len(k) for k in by_kind)
    print(f"  {'stage':<{kind_w}}  {'count':>5}  {'total_s':>9}  "
          f"{'busy_s':>9}  {'% wall':>7}")
    for kind, row in sorted(
        by_kind.items(), key=lambda item: (-item[1]["busy_s"], item[0])
    ):
        share = row["busy_s"] / wall if wall > 0 else 0.0
        print(f"  {kind:<{kind_w}}  {int(row['count']):>5}  "
              f"{row['total_s']:>9.4f}  {row['busy_s']:>9.4f}  {share:>7.1%}")
    print()
    print("per process:")
    stragglers = set(breakdown["stragglers"])
    proc_w = max(len(p) for p in breakdown["by_proc"])
    for proc, row in sorted(
        breakdown["by_proc"].items(), key=lambda item: -item[1]["busy_s"]
    ):
        share = row["busy_s"] / wall if wall > 0 else 0.0
        flag = "  <-- straggler" if proc in stragglers else ""
        print(f"  {proc:<{proc_w}}  {int(row['count']):>4} span(s)  "
              f"busy {row['busy_s']:>9.4f}s  ({share:.1%}){flag}")
    print()
    print("critical path (self time explains the wait):")
    for step in path:
        print(f"  {str(step.get('kind', '?')):<14} {str(step.get('proc', '?')):<16} "
              f"{_critical_duration(step):>9.4f}s  self {step['self_s']:>9.4f}s")
    return 0


def _critical_duration(step: Dict[str, Any]) -> float:
    end = step.get("end")
    if end is None:
        return 0.0
    return max(0.0, float(end) - float(step.get("start", 0.0)))


# -- entry point -----------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "summarize":
            return _summarize(args.path, args.json)
        if args.command == "filter":
            return _filter(args)
        if args.command == "job":
            return _job(args)
        return _timeseries(args)
    except FileNotFoundError as exc:
        print(f"error: {exc.filename}: no such trace file", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: not an error.  Detach
        # stdout so interpreter shutdown does not print a spurious warning.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
