"""DSR agent unit tests: source-routed forwarding and snooping."""

from repro.core.config import DsrConfig
from repro.core.messages import RouteError, RouteReply
from repro.net.packet import Packet, PacketKind

from tests.helpers import make_agent


def _data_at(node_id, route, src=None, dst=None, uid=1, salvaged=0):
    """A data packet that just arrived at ``node_id`` (its route position)."""
    return Packet(
        kind=PacketKind.DATA,
        src=src if src is not None else route[0],
        dst=dst if dst is not None else route[-1],
        uid=uid,
        payload_bytes=512,
        source_route=list(route),
        route_index=route.index(node_id),
        salvaged=salvaged,
    )


def test_intermediate_forwards_to_next_hop():
    agent, node, sim = make_agent(2)
    agent.handle_packet(_data_at(2, [0, 2, 5], uid=9))
    assert len(node.mac.sent) == 1
    packet, next_hop = node.mac.sent[0]
    assert next_hop == 5
    assert packet.route_index == 2
    assert packet.uid == 9
    assert node.delivered == []


def test_destination_delivers_to_app():
    agent, node, sim = make_agent(5)
    agent.handle_packet(_data_at(5, [0, 2, 5], uid=9))
    assert [p.uid for p in node.delivered] == [9]
    assert node.mac.sent == []


def test_forwarder_caches_both_directions():
    agent, node, sim = make_agent(2)
    agent.handle_packet(_data_at(2, [0, 1, 2, 5, 6]))
    assert agent.cache.find(6) == [2, 5, 6]
    assert agent.cache.find(0) == [2, 1, 0]


def test_forwarding_marks_links_as_forwarded():
    agent, node, sim = make_agent(2, dsr=DsrConfig.with_wider_error())
    agent.handle_packet(_data_at(2, [0, 2, 5]))
    assert agent.cache.link_forwarded((2, 5))
    assert agent.cache.link_forwarded((0, 2))


def test_base_dsr_forwarding_writes_neither_link_table():
    # No expiry sweep reads last-seen times and no wide error reads the
    # forwarded set, so base DSR writes neither.
    agent, node, sim = make_agent(2)
    agent.handle_packet(_data_at(2, [0, 2, 5]))
    assert len(node.mac.sent) == 1
    assert agent.cache._link_last_seen == {}
    assert not agent.cache.link_forwarded((2, 5))


def test_reply_packet_forwarded_and_carried_route_cached():
    agent, node, sim = make_agent(2)
    reply = Packet(
        kind=PacketKind.RREP,
        src=5,
        dst=0,
        uid=3,
        source_route=[5, 2, 0],
        route_index=1,
        info=RouteReply(route=[0, 2, 5], request_id=1),
    )
    agent.handle_packet(reply)
    assert len(node.mac.sent) == 1
    _, next_hop = node.mac.sent[0]
    assert next_hop == 0
    assert agent.cache.find(5) == [2, 5]
    assert agent.cache.find(0) == [2, 0]


def test_error_packet_forwarded_and_absorbed():
    agent, node, sim = make_agent(2)
    agent.cache.add([2, 5, 6, 7], now=0.0)
    error = Packet(
        kind=PacketKind.RERR,
        src=6,
        dst=0,
        uid=4,
        source_route=[6, 2, 0],
        route_index=1,
        info=RouteError(link=(6, 7), detector=6, error_id=1),
    )
    agent.handle_packet(error)
    assert len(node.mac.sent) == 1  # forwarded toward the source
    assert agent.cache.find(7) is None  # truncated at the broken link
    # Forwarding the error also teaches the direct route back to 6.
    assert agent.cache.find(6) == [2, 6]


def test_negative_cache_drops_poisoned_forwarding():
    agent, node, sim = make_agent(2, dsr=DsrConfig.with_negative_cache())
    agent.negative.add((5, 6), now=0.0)
    agent.handle_packet(_data_at(2, [0, 2, 5, 6], uid=9))
    data = [p for p, _ in node.mac.sent if p.kind is PacketKind.DATA]
    errors = [p for p, _ in node.mac.sent if p.kind is PacketKind.RERR]
    assert data == []  # dropped
    assert len(errors) == 1  # and a route error generated
    assert errors[0].info.link == (5, 6)
    assert errors[0].dst == 0


def test_negative_cache_drops_stale_reply():
    agent, node, sim = make_agent(2, dsr=DsrConfig.with_negative_cache())
    agent.negative.add((5, 6), now=0.0)
    reply = Packet(
        kind=PacketKind.RREP,
        src=6,
        dst=0,
        uid=3,
        source_route=[6, 2, 0],
        route_index=1,
        info=RouteReply(route=[0, 2, 5, 6], request_id=1),
    )
    agent.handle_packet(reply)
    assert node.mac.sent == []


def test_malformed_route_dropped_not_crashed():
    agent, node, sim = make_agent(2)
    broken = Packet(
        kind=PacketKind.DATA,
        src=0,
        dst=5,
        uid=1,
        source_route=[0, 2],
        route_index=5,  # out of range
    )
    agent.handle_packet(broken)
    assert node.mac.sent == []


def test_promiscuous_snooping_chains_through_transmitter():
    agent, node, sim = make_agent(9)  # not on the route
    overheard = _data_at(2, [0, 2, 5, 6])
    overheard = overheard.clone(route_index=2)  # as transmitted by node 2
    agent.handle_promiscuous(overheard)
    assert agent.cache.find(6) == [9, 2, 5, 6]
    assert agent.cache.find(0) == [9, 2, 0]


def test_promiscuous_disabled_learns_nothing():
    agent, node, sim = make_agent(9, dsr=DsrConfig(promiscuous_listening=False))
    overheard = _data_at(2, [0, 2, 5, 6]).clone(route_index=2)
    agent.handle_promiscuous(overheard)
    assert len(agent.cache) == 0


def test_route_shortening_sends_gratuitous_reply():
    agent, node, sim = make_agent(5)
    # Packet was transmitted by 0 toward 2, but we (5, two hops later on the
    # route) overheard it directly: offer the source route [0, 5, 6].
    overheard = Packet(
        kind=PacketKind.DATA,
        src=0,
        dst=6,
        uid=1,
        payload_bytes=512,
        source_route=[0, 2, 5, 6],
        route_index=1,  # receiver index: transmitted by 0 to 2
    )
    agent.handle_promiscuous(overheard)
    replies = [p for p, _ in node.mac.sent if p.kind is PacketKind.RREP]
    assert len(replies) == 1
    assert replies[0].info.route == [0, 5, 6]
    assert replies[0].info.gratuitous


def test_route_shortening_rate_limited():
    agent, node, sim = make_agent(5)
    overheard = Packet(
        kind=PacketKind.DATA,
        src=0,
        dst=6,
        uid=1,
        payload_bytes=512,
        source_route=[0, 2, 5, 6],
        route_index=1,
    )
    agent.handle_promiscuous(overheard)
    agent.handle_promiscuous(overheard.clone(uid=2))
    replies = [p for p, _ in node.mac.sent if p.kind is PacketKind.RREP]
    assert len(replies) == 1  # held off within grat_reply_holdoff


def test_no_shortening_for_adjacent_hop():
    agent, node, sim = make_agent(5)
    # We are the very next hop: nothing to shorten.
    overheard = Packet(
        kind=PacketKind.DATA,
        src=0,
        dst=6,
        uid=1,
        source_route=[0, 5, 6],
        route_index=1,
    )
    agent.handle_promiscuous(overheard)
    replies = [p for p, _ in node.mac.sent if p.kind is PacketKind.RREP]
    assert replies == []
