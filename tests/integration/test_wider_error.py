"""Integration tests: wider error notification over a real network.

Topology: a line of relays with bystander nodes hanging off it, carrying a
multi-hop flow.  When the far relay walks away, base DSR informs only the
source chain, while wider error notification reaches every node that
forwarded over the broken route.

The last test removes the relay gate on a mobile tiny scenario: without it
a wide error is a flood.
"""

import repro.scenarios.builder as builder_module
from repro.core.agent import DsrAgent
from repro.core.config import DsrConfig
from repro.scenarios.presets import tiny_scenario
from repro.traffic.cbr import CbrSource
from repro.traffic.sink import Sink

from tests.helpers import build_net_from_mobility, moving_away_mobility

# 0 - 1 - 2 - 3 (flow 0 -> 3); node 4 snoops near node 1.
POSITIONS = [
    (0.0, 0.0),
    (220.0, 0.0),
    (440.0, 0.0),
    (660.0, 0.0),
    (220.0, 150.0),  # bystander in range of 0, 1, 2
]


def _run(dsr: DsrConfig):
    mobility = moving_away_mobility(POSITIONS, mover=3, depart_at=5.0, speed=150.0)
    net = build_net_from_mobility(mobility, dsr=dsr)
    Sink(net.nodes[3])
    CbrSource(net.sim, net.nodes[0], dst=3, rate=4.0, start=0.0, stop=10.0)
    net.sim.run(until=15.0)
    return net


def test_base_dsr_leaves_bystander_cache_stale():
    net = _run(DsrConfig.base())
    bystander = net.agent(4)
    # The bystander snooped the route and still believes in the dead link.
    assert bystander.cache.contains_link((2, 3))


def test_wider_error_cleans_bystander_cache():
    net = _run(DsrConfig.with_wider_error())
    bystander = net.agent(4)
    assert not bystander.cache.contains_link((2, 3))


def test_wider_error_is_broadcast_and_relayed_along_forwarders():
    net = _run(DsrConfig.with_wider_error())
    wide_sends = [r for r in net.records("dsr.rerr_sent") if r.fields["wide"]]
    assert wide_sends  # the detector broadcast
    relays = net.records("dsr.rerr_relay")
    # Node 1 forwarded over (2,3) and cached it: it must relay the error.
    assert any(r.fields["node"] == 1 for r in relays)


def test_wider_error_does_not_flood_nonforwarders():
    net = _run(DsrConfig.with_wider_error())
    relays = net.records("dsr.rerr_relay")
    # The bystander never forwarded over the broken link: it must not relay.
    assert all(r.fields["node"] != 4 for r in relays)


class _UngatedDsrAgent(DsrAgent):
    """Wider error with the relay gate removed: every node that hears an
    error for the first time rebroadcasts it."""

    def _handle_wide_error(self, packet, error):
        key = (error.detector, error.error_id)
        if self._seen_errors.seen(key, self._now()):
            return
        self._seen_errors.insert(key, self._now())
        self._absorb_error(error)
        relayed = packet.clone(src=self.node_id, uid=self.node.next_uid())
        self._broadcast_with_jitter(relayed)


def test_relay_gate_keeps_wide_errors_from_costing_a_flood(monkeypatch):
    # The paper relays a wide error only at nodes that cached the broken
    # link and forwarded over it; that gate is what makes the technique
    # affordable in routing transmissions.
    config = tiny_scenario(dsr=DsrConfig.with_wider_error(), seed=2, pause_time=0.0)
    gated = builder_module.run_scenario(config)
    monkeypatch.setattr(builder_module, "DsrAgent", _UngatedDsrAgent)
    ungated = builder_module.run_scenario(config)
    assert gated.link_breaks > 0
    assert ungated.routing_tx > gated.routing_tx
