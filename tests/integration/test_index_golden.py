"""Golden cross-backend determinism at the paper's 100-node scale.

The spatial-index contract is that simulation output is a pure function of
the scenario — not of which index computes the geometry.  This pins a
100-node run to golden metrics captured from the all-pairs backend and
requires the grid backend to reproduce every field bit for bit, including
the float accumulators (``delay_sum``), which would expose any deviation in
arithmetic order or neighbour ordering immediately.
"""

import pytest

from repro.scenarios.builder import run_scenario
from repro.scenarios.presets import paper_scenario

GOLDEN = {
    "data_sent": 128,
    "data_received": 119,
    "delay_sum": 5.599070081384597,
    "mac_control_tx": 4995,
    "routing_tx": 1428,
    "data_tx": 663,
    "rreq_sent": 23,
    "link_breaks": 46,
    "cache_hits": 312,
}


def _scenario(index: str):
    """The paper's 100-node field, shortened so two full runs stay cheap."""
    return paper_scenario(pause_time=0.0, seed=7).but(
        duration=12.0, num_sessions=8, neighbor_index=index
    )


@pytest.fixture(scope="module")
def allpairs():
    """The all-pairs run both tests compare against, simulated once."""
    return run_scenario(_scenario("allpairs"))


def test_100_node_metrics_bit_identical_across_backends(allpairs):
    grid = run_scenario(_scenario("grid"))
    assert allpairs == grid  # every SimulationResult field, bit for bit
    for name, expected in GOLDEN.items():
        assert getattr(allpairs, name) == expected, f"golden drift in {name}"


def test_auto_matches_forced_backend_at_100_nodes(allpairs):
    """``auto`` resolves below the grid threshold at 100 nodes, and the
    resolved run must equal the explicitly forced one."""
    auto = run_scenario(_scenario("auto"))
    assert auto == allpairs
