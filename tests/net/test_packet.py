"""Unit tests for network packets and header accounting."""

import pytest

from repro.core.messages import RouteReply, RouteRequest
from repro.net.packet import (
    DSR_ADDRESS_BYTES,
    Packet,
    PacketKind,
    dsr_header_bytes,
)


def _routed_packet():
    return Packet(
        kind=PacketKind.DATA,
        src=0,
        dst=3,
        uid=1,
        payload_bytes=512,
        source_route=[0, 1, 2, 3],
        route_index=1,
    )


def test_remaining_route():
    packet = _routed_packet()
    assert packet.remaining_route() == [1, 2, 3]


def test_at_destination():
    packet = _routed_packet()
    assert not packet.at_destination()
    last = packet.clone(route_index=3)
    assert last.at_destination()


def test_clone_deep_copies_route():
    packet = _routed_packet()
    copy = packet.clone(route_index=2)
    copy.source_route.append(99)
    assert packet.source_route == [0, 1, 2, 3]
    assert copy.route_index == 2


def test_route_helpers_require_route():
    packet = Packet(kind=PacketKind.DATA, src=0, dst=1, uid=1)
    with pytest.raises(ValueError):
        packet.remaining_route()
    assert not packet.at_destination()


def test_header_bytes_grow_with_route_length():
    short = _routed_packet()
    long = short.clone(source_route=[0, 1, 2, 3, 4, 5])
    assert long.header_bytes() - short.header_bytes() == 2 * DSR_ADDRESS_BYTES


def test_size_includes_payload_and_info():
    packet = _routed_packet()
    assert packet.size_bytes() == packet.header_bytes() + 512
    request = RouteRequest(origin=0, target=3, request_id=1, record=[0, 1])
    rreq = Packet(kind=PacketKind.RREQ, src=0, dst=-1, uid=2, info=request)
    assert rreq.header_bytes() == dsr_header_bytes(0) + request.header_bytes()


def test_reply_header_includes_carried_route():
    reply = RouteReply(route=[0, 1, 2], request_id=1)
    packet = Packet(
        kind=PacketKind.RREP,
        src=2,
        dst=0,
        uid=3,
        source_route=[2, 1, 0],
        info=reply,
    )
    assert packet.header_bytes() == dsr_header_bytes(3) + reply.header_bytes()


def test_is_broadcast():
    from repro.net.addresses import BROADCAST

    packet = Packet(kind=PacketKind.RREQ, src=0, dst=BROADCAST, uid=1)
    assert packet.is_broadcast
    assert not _routed_packet().is_broadcast


def test_routing_control_classification():
    assert not PacketKind.DATA.is_routing_control
    for kind in (PacketKind.RREQ, PacketKind.RREP, PacketKind.RERR):
        assert kind.is_routing_control
