"""``python -m benchmarks.ledger run|compare|agree`` (see README.md)."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from . import compare, harness
from .workloads import WORKLOADS


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="benchmarks.ledger", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="measure workloads and print every metric")
    run.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="repeatable; default: all seven",
    )
    run.add_argument("--seed", type=_seed, default=1, help="feeds every scenario seed")
    run.add_argument(
        "--seconds", type=float, default=harness.DEFAULT_SECONDS,
        help="measured seconds per workload; sets the number of rounds (>= 5 repeats)",
    )
    run.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: end-to-end metrics only; 1: per-layer metrics only; default: both",
    )
    run.add_argument(
        "--smoke", action="store_true",
        help="0.05 x the issue's sizes, 1 round: checks the harness, not the program",
    )
    run.add_argument("--out", type=Path, help="write the full result set here")
    run.add_argument(
        "--pin", action="store_true",
        help="record this seed's result digests in goldens.json",
    )

    cmp_ = commands.add_parser("compare", help="A.json B.json -> one verdict per row")
    cmp_.add_argument("a", type=Path)
    cmp_.add_argument("b", type=Path)

    agree = commands.add_parser(
        "agree", help="two full sets of this tree must agree within every bound"
    )
    agree.add_argument("--seed", type=_seed, default=1)
    agree.add_argument("--smoke", action="store_true")
    agree.add_argument("--out-prefix", type=Path, help="write <prefix>A.json and B.json")
    return parser


def _progress(message: str) -> None:
    print(f". {message}", file=sys.stderr, flush=True)


def cmd_run(args: argparse.Namespace) -> int:
    if not (harness.ROOT / "src" / "repro").is_dir():
        print("benchmarks.ledger: no src/repro beside it, nothing to measure", file=sys.stderr)
        return 2
    manifest = harness.load_manifest()
    names = args.workload or list(WORKLOADS)
    result_set = harness.run_set(
        names,
        seed=args.seed,
        seconds=None if args.smoke else args.seconds,
        scale=harness.SMOKE_SCALE if args.smoke else 1.0,
        untraced=args.trace in (None, 0),
        traced=args.trace in (None, 1),
        progress=_progress,
    )
    for line in harness.format_table(result_set, manifest):
        print(line)
    if args.out is not None:
        args.out.write_text(json.dumps(result_set, indent=1) + "\n")
    entries = result_set["workloads"]
    ok = all(e["failed"] == 0 and not e["errors"] for e in entries.values())
    if args.pin and ok and not args.smoke:
        goldens = harness.load_goldens()
        for name, entry in entries.items():
            goldens.setdefault(name, {})[str(args.seed)] = [
                entry["digests"][k] for k in sorted(entry["digests"], key=int)
            ]
        harness.GOLDENS_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    if len(names) == 1 and args.trace is not None:
        line = harness.contract_line(result_set, names[0], bool(args.trace), manifest)
    else:
        line = {
            "correct": ok,
            "attempted": sum(e["attempted"] for e in entries.values()),
            "failed": sum(e["failed"] for e in entries.values()),
        }
    print(json.dumps(line))
    return 0 if ok else 1


def cmd_compare(args: argparse.Namespace) -> int:
    manifest = harness.load_manifest()
    a, b = json.loads(args.a.read_text()), json.loads(args.b.read_text())
    rows = compare.compare_sets(a, b, manifest)
    for line in compare.format_rows(rows):
        print(line)
    for line in compare.count_differences(a, b):
        print(f"COUNT {line}")
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


def cmd_agree(args: argparse.Namespace) -> int:
    manifest = harness.load_manifest()
    sets = []
    for label in "AB":
        result_set = harness.run_set(
            list(WORKLOADS),
            seed=args.seed,
            seconds=None if args.smoke else harness.DEFAULT_SECONDS,
            scale=harness.SMOKE_SCALE if args.smoke else 1.0,
            progress=_progress,
        )
        if args.out_prefix is not None:
            Path(f"{args.out_prefix}{label}.json").write_text(
                json.dumps(result_set, indent=1) + "\n"
            )
        sets.append(result_set)
    rows = compare.compare_sets(sets[0], sets[1], manifest)
    for line in compare.format_rows(rows):
        print(line)
    apart = compare.disagreements(rows)
    counts = compare.count_differences(sets[0], sets[1])
    failed = [
        f"{name}: {error}"
        for result_set in sets
        for name, entry in result_set["workloads"].items()
        for error in entry["errors"]
    ]
    for row in apart:
        print(f"DISAGREE {row['workload']} {row['metric']}: {100 * row['worse_by']:+.1f}%")
    for line in counts + failed:
        print(f"DISAGREE {line}")
    print(json.dumps({"agree": not (apart or counts or failed), "rows": len(rows)}))
    return 1 if (apart or counts or failed) else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return {"run": cmd_run, "compare": cmd_compare, "agree": cmd_agree}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
