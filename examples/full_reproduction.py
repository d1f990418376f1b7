#!/usr/bin/env python3
"""Reproduce the whole paper with one command and write a markdown report.

Runs the four artifacts of the paper's evaluation (``repro.paper.reproduce``)
and the ablation/extension tables (``repro.paper.supplement``) through one
sweep engine, so shared grid points run once and a re-run with the same
``--cache-dir`` simulates nothing.  ``EXPERIMENTS.md`` quotes the report of

    python examples/full_reproduction.py --scale scaled --seeds 1,2,3

    python examples/full_reproduction.py                 # quick sanity scale
    python examples/full_reproduction.py --scale paper   # full scale (hours)
"""

import argparse
import os
import sys

from repro.analysis.runner import SweepEngine
from repro.paper import reproduce, supplement


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=("quick", "scaled", "paper"), default="quick")
    parser.add_argument("--seeds", default="1,2", help="comma-separated seeds")
    parser.add_argument("--out", default="reproduction_report.md")
    parser.add_argument(
        "--processes",
        type=int,
        default=os.cpu_count(),
        help="worker processes for the sweep engine (1 = in-process)",
    )
    parser.add_argument(
        "--cache-dir",
        default=".sweep-cache",
        help="result cache directory; re-runs only simulate changed points",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="always simulate (ignore --cache-dir)",
    )
    args = parser.parse_args()

    seeds = [int(chunk) for chunk in args.seeds.split(",") if chunk.strip()]
    engine = SweepEngine.create(
        processes=args.processes, cache_dir=None if args.no_cache else args.cache_dir
    )
    progress = lambda message: print(f"... {message}", file=sys.stderr)
    report = reproduce(scale=args.scale, seeds=seeds, progress=progress, engine=engine)
    extra = supplement(scale=args.scale, seeds=seeds, progress=progress, engine=engine)
    stats = ", ".join(f"{name}: {count}" for name, count in engine.session_stats().items())
    print(f"... sweep engine: {stats}", file=sys.stderr)
    markdown = report.to_markdown() + "\n\n" + extra.to_markdown()
    with open(args.out, "w") as handle:
        handle.write(markdown + "\n")
    print(markdown)
    print(f"\n(report written to {args.out})", file=sys.stderr)


if __name__ == "__main__":
    main()
