#!/usr/bin/env python3
"""A miniature of the paper's Figure 2: performance versus mobility.

Sweeps the random-waypoint pause time (0 = constant motion, run length =
every node rests once its first leg ends) for base DSR and the
combined-techniques variant, averaging a couple of seeds per point, and
prints the three routing metrics as a table per variant.

    python examples/mobility_sweep.py          # quick (2 seeds, 60 s runs)
    python examples/mobility_sweep.py --full   # denser sweep

The sweep executes through the parallel, content-addressed sweep engine:
``--processes`` fans points out over cores, and ``--cache-dir`` makes
re-runs incremental (only new or changed points simulate).
"""

import argparse
import os
import sys

from repro.analysis.runner import SweepEngine
from repro.analysis.tables import format_series
from repro.core.config import DsrConfig
from repro.scenarios.presets import scaled_scenario

DURATION = 60.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="denser sweep, more seeds")
    parser.add_argument(
        "--processes",
        type=int,
        default=os.cpu_count(),
        help="worker processes (1 = in-process; default: all cores)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persist results here and skip already-simulated points",
    )
    args = parser.parse_args()

    pauses = [0.0, 20.0, DURATION] if not args.full else [0.0, 10.0, 20.0, 40.0, DURATION]
    seeds = [1, 2] if not args.full else [1, 2, 3, 4, 5]

    engine = SweepEngine.create(processes=args.processes, cache_dir=args.cache_dir)
    variants = {
        "Base DSR": DsrConfig.base(),
        "All techniques": DsrConfig.all_techniques(),
    }
    for name, dsr in variants.items():
        points = engine.sweep(
            lambda pause, seed, d=dsr: scaled_scenario(
                pause_time=pause, packet_rate=3.0, dsr=d, seed=seed, duration=DURATION
            ),
            pauses,
            seeds,
            label=lambda pause: f"{pause:g}",
        )
        print(f"== {name}: metrics vs pause time (s) ==")
        print(format_series(points, x_title="pause"))
        print()
    stats = engine.session_stats()
    print(
        f"[engine] executed {stats['executed']} simulation(s), "
        f"{stats['cache_hits']} from cache, {stats['deduped']} deduplicated",
        file=sys.stderr,
    )


if __name__ == "__main__":
    main()
