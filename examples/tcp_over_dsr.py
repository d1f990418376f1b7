#!/usr/bin/env python3
"""TCP meets stale route caches.

The paper's related work (Holland & Vaidya) found that stale DSR routes are
particularly brutal for TCP: a dead source route stalls the flow, TCP calls
it congestion, and the window collapses.  This example runs greedy Tahoe
flows over the mobile scenario with base DSR and with the paper's three
techniques over three mobility seeds, printing per-flow goodput, the
senders' loss signals and the mean aggregate goodput per variant.

    python examples/tcp_over_dsr.py
"""

from repro.analysis.stats import mean_confidence_interval
from repro.core.config import DsrConfig
from repro.scenarios.builder import build_simulation
from repro.scenarios.presets import scaled_scenario


SEEDS = (1, 2, 3)


def run(name: str, dsr: DsrConfig, seed: int) -> float:
    config = scaled_scenario(
        pause_time=0.0, dsr=dsr, seed=seed, duration=60.0
    ).but(traffic_type="tcp", num_sessions=4)
    handle = build_simulation(config)
    handle.sim.run(until=config.duration)

    print(f"--- {name}, seed {seed} ---")
    total = 0
    for source, sink in zip(handle.sources, handle.sinks):
        goodput = sink.goodput_segments * config.payload_bytes * 8 / 1000.0 / config.duration
        total += sink.goodput_segments
        print(
            f"  flow {source.flow}: {goodput:6.1f} kb/s   "
            f"retransmits={source.retransmissions:<4d} timeouts={source.timeouts}"
        )
    aggregate = total * config.payload_bytes * 8 / 1000.0 / config.duration
    print(f"  aggregate goodput: {aggregate:.1f} kb/s\n")
    return aggregate


def main() -> None:
    print("4 greedy TCP (Tahoe) flows, 30 mobile nodes, 60 s, constant motion\n")
    means = {}
    for name, dsr in (
        ("Base DSR", DsrConfig.base()),
        ("DSR + all three techniques", DsrConfig.all_techniques()),
    ):
        means[name], half_width = mean_confidence_interval(
            [run(name, dsr, seed) for seed in SEEDS]
        )
        print(f"=== {name}: {means[name]:.1f} +/- {half_width:.1f} kb/s over seeds {SEEDS}\n")
    base, combined = means.values()
    change = (combined / base - 1.0) * 100.0 if base > 0 else float("inf")
    print(f"Goodput change from cache-correctness techniques: {change:+.1f} %")


if __name__ == "__main__":
    main()
