#!/usr/bin/env python3
"""Profile a whole simulation: hotspots, cache staleness, energy.

Runs one mobile scenario with every analysis instrument attached and
prints:

1. the scenario's physical character (degree, path length, link lifetimes),
2. the paper's routing/cache metrics,
3. the busiest nodes (per-node airtime/drop breakdown),
4. a terminal chart of cache staleness over time, and
5. the radio energy bill, per delivered packet, against the same scenario
   run with the paper's three techniques.

    python examples/network_profile.py
"""

import statistics

from repro.analysis.plot import render_chart
from repro.analysis.topology import (
    average_degree,
    average_path_length,
    link_lifetimes,
)
from repro.core.config import DsrConfig
from repro.metrics.cachestats import CacheSampler
from repro.metrics.groundtruth import make_validity_oracle
from repro.metrics.pernode import PerNodeCollector
from repro.scenarios.builder import build_simulation
from repro.scenarios.presets import scaled_scenario


def main() -> None:
    config = scaled_scenario(
        pause_time=0.0, dsr=DsrConfig.base(), seed=4, duration=60.0
    ).but(track_energy=True)
    handle = build_simulation(config)

    # 1. Physical character of the scenario.
    lifetimes = link_lifetimes(handle.mobility, config.rx_range, config.duration)
    print("== scenario ==")
    print(f"  nodes/field        : {config.num_nodes} in "
          f"{config.field_width:g} x {config.field_height:g} m")
    print(f"  average degree     : {average_degree(handle.mobility, config.rx_range, 30.0):.1f}")
    print(f"  average path length: {average_path_length(handle.mobility, config.rx_range, 30.0):.2f} hops")
    if lifetimes:
        print(f"  link lifetime      : median {statistics.median(lifetimes):.1f} s "
              f"(n={len(lifetimes)})")

    # Instruments.
    per_node = PerNodeCollector(handle.tracer)
    oracle = make_validity_oracle(handle.sim, handle.neighbors)
    agents = {node_id: node.agent for node_id, node in handle.nodes.items()}
    sampler = CacheSampler(handle.sim, agents, oracle, period=5.0)

    result = handle.run()

    # 2. Headline metrics.
    print("\n== routing metrics (base DSR, constant mobility) ==")
    print(f"  delivery fraction  : {result.packet_delivery_fraction:.3f}")
    print(f"  average delay      : {result.average_delay * 1000:.1f} ms")
    print(f"  normalized overhead: {result.normalized_overhead:.2f}")
    print(f"  good replies       : {result.pct_good_replies:.1f} %")
    print(f"  invalid cache hits : {result.pct_invalid_cache_hits:.1f} %")

    # 3. Hotspots.
    print("\n== busiest nodes ==")
    print(per_node.format_report(top=6))

    # 4. Cache staleness over time.
    series = sampler.stale_fraction_series()
    if series:
        print("\n== stale fraction of all cached routes over time ==")
        print(
            render_chart(
                {"stale": [value for _, value in series]},
                x_labels=[f"{t:g}" for t, _ in series],
                height=8,
                width=50,
                y_label="stale fraction",
            )
        )

    # 5. Energy.
    energy = handle.energy
    communication = energy.communication_joules()
    total = energy.total_joules(config.duration, num_nodes=config.num_nodes)
    print("\n== energy (WaveLAN power model) ==")
    print(f"  communication      : {communication:.1f} J")
    print(f"  total (incl. idle) : {total:.1f} J")
    per_packet = communication / max(result.data_received, 1) * 1000
    print(f"  per delivered pkt  : {per_packet:.1f} mJ")
    # Stale-route transmissions bill the sender and every overhearing
    # neighbour, so cache correctness shows up on the battery.
    combined = build_simulation(config.but(dsr=DsrConfig.all_techniques()))
    combined_result = combined.run()
    combined_per_packet = (
        combined.energy.communication_joules() / max(combined_result.data_received, 1) * 1000
    )
    print(f"  all techniques     : {combined_per_packet:.1f} mJ per delivered pkt "
          f"({(combined_per_packet / per_packet - 1.0) * 100.0:+.0f} %), delivery "
          f"{combined_result.packet_delivery_fraction:.3f}")


if __name__ == "__main__":
    main()
