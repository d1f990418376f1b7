#!/usr/bin/env python3
"""DSR versus AODV on the identical scenario.

The paper's conclusion suggests its caching techniques generalise to other
on-demand protocols, naming AODV.  This example runs base DSR, DSR with all
three techniques, and AODV over the same mobility and traffic, and prints
the three routing metrics side by side.

    python examples/aodv_comparison.py
"""

from repro.analysis.runner import SweepEngine
from repro.analysis.series import compare_variants
from repro.analysis.tables import format_table
from repro.core.config import DsrConfig
from repro.scenarios.presets import scaled_scenario


def main() -> None:
    seeds = [1, 2]
    duration = 60.0

    def dsr_variant(dsr):
        return lambda seed: scaled_scenario(
            pause_time=0.0, packet_rate=3.0, dsr=dsr, seed=seed, duration=duration
        )

    def aodv(seed):
        return scaled_scenario(
            pause_time=0.0, packet_rate=3.0, seed=seed, duration=duration
        ).but(protocol="aodv")

    print(f"30 nodes, constant mobility, 8 CBR sessions, {duration:g} s, seeds {seeds}\n")
    rows = compare_variants(
        {
            "DSR (base)": dsr_variant(DsrConfig.base()),
            "DSR (all techniques)": dsr_variant(DsrConfig.all_techniques()),
            "AODV": aodv,
        },
        seeds,
        runner=SweepEngine().run_results,
    )
    print(format_table(rows, metrics=("pdf", "delay", "overhead"), row_title="protocol"))
    print(
        "\nAODV's intermediate-node replies are its (indirect) route cache;\n"
        "its sequence numbers already provide the freshness signal the paper\n"
        "wants to add to DSR — compare the overhead columns to see the cost."
    )


if __name__ == "__main__":
    main()
