"""Tests for AODV's expanding ring search."""

import numpy as np

from repro.baselines.aodv.agent import AodvAgent
from repro.net.packet import Packet, PacketKind
from repro.sim.engine import Simulator

from tests.helpers import FakeNode


def make(node_id):
    sim = Simulator()
    agent = AodvAgent(node_id, sim, rng=np.random.default_rng(node_id + 1))
    node = FakeNode(node_id, sim, agent)
    return agent, node, sim


def _data(src, dst, uid=1):
    return Packet(kind=PacketKind.DATA, src=src, dst=dst, uid=uid, payload_bytes=64)


def test_expanding_ring_widens_ttl():
    agent, node, sim = make(0)
    agent.originate(_data(0, 9))
    sim.run(until=20.0)
    ttls = [p.ttl for p, _ in node.mac.sent if p.kind is PacketKind.AODV_RREQ]
    assert ttls[:4] == [1, 3, 5, 7]
    assert ttls[4] == agent.RREQ_TTL  # escalates to network-wide
