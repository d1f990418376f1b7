"""Network-layer packets.

One :class:`Packet` class covers data and every routing-control message; the
protocol-specific payload (route request/reply/error bodies) rides in
``info``.  Header sizes follow the DSR Internet-Draft encoding closely
enough for overhead accounting: a fixed per-option overhead plus four bytes
per address in any carried route.

Packets are *logically immutable per hop*: a node that forwards a packet
calls :meth:`Packet.clone` and mutates only its own copy, because the same
object may simultaneously sit in other nodes' queues or be snooped
promiscuously.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, List, Optional

from repro.net.addresses import BROADCAST

IP_HEADER_BYTES = 20
DSR_FIXED_BYTES = 4
DSR_ADDRESS_BYTES = 4


class PacketKind(str, Enum):
    """What a packet is, at the routing layer."""

    DATA = "data"
    RREQ = "rreq"
    RREP = "rrep"
    RERR = "rerr"
    AODV_RREQ = "aodv_rreq"
    AODV_RREP = "aodv_rrep"
    AODV_RERR = "aodv_rerr"

    @property
    def is_routing_control(self) -> bool:
        return self is not PacketKind.DATA


def dsr_header_bytes(route_len: int) -> int:
    """Bytes of IP + DSR headers for a packet carrying ``route_len`` hops."""
    return IP_HEADER_BYTES + DSR_FIXED_BYTES + DSR_ADDRESS_BYTES * route_len


@dataclass
class Packet:
    """A network-layer packet.

    Attributes
    ----------
    kind:
        Routing-layer type.
    src / dst:
        Originator and final destination node ids (``dst`` may be
        :data:`~repro.net.addresses.BROADCAST` for floods).
    uid:
        Unique id assigned at origination; retained across forwarding so
        end-to-end delivery and duplicate suppression can key on it.
    payload_bytes:
        Application payload size (512 for the paper's CBR data, 0 for
        control packets).
    born:
        Origination time, for end-to-end delay measurement.
    source_route:
        For source-routed packets: the complete hop list including ``src``
        and ``dst``.
    route_index:
        Position of the *current holder* within ``source_route``.
    ttl:
        Remaining hop budget for flooded packets (route requests).
    info:
        Protocol payload (e.g. :class:`repro.core.messages.RouteRequest`).
    salvaged:
        How many times intermediate nodes re-routed this packet after a
        broken link (DSR caps this).
    """

    kind: PacketKind
    src: int
    dst: int
    uid: int
    payload_bytes: int = 0
    born: float = 0.0
    source_route: Optional[List[int]] = None
    route_index: int = 0
    ttl: int = 255
    info: Any = None
    salvaged: int = 0
    piggyback: Any = field(default=None)

    def clone(self, **changes: Any) -> "Packet":
        """Copy for per-hop mutation; list fields are deep-copied."""
        if not changes.keys() <= self.__dict__.keys():
            raise TypeError(f"not Packet fields: {sorted(changes.keys() - self.__dict__.keys())}")
        fresh = Packet.__new__(Packet)
        fresh.__dict__.update(self.__dict__, **changes)
        if fresh.source_route is not None and "source_route" not in changes:
            fresh.source_route = list(fresh.source_route)
        return fresh

    # -- source-route helpers ------------------------------------------------

    @property
    def is_broadcast(self) -> bool:
        return self.dst == BROADCAST

    def remaining_route(self) -> List[int]:
        """Hops from the current holder to the destination, inclusive."""
        if self.source_route is None:
            raise ValueError(f"packet {self.uid} has no source route")
        return self.source_route[self.route_index:]

    def at_destination(self) -> bool:
        if self.source_route is None:
            return False
        return self.route_index == len(self.source_route) - 1

    # -- size accounting -----------------------------------------------------

    def header_bytes(self) -> int:
        route_len = len(self.source_route) if self.source_route else 0
        extra = 0
        if self.info is not None and hasattr(self.info, "header_bytes"):
            extra += self.info.header_bytes()
        if self.piggyback is not None and hasattr(self.piggyback, "header_bytes"):
            extra += self.piggyback.header_bytes()
        return dsr_header_bytes(route_len) + extra

    def size_bytes(self) -> int:
        """Total network-layer bytes on the wire."""
        return self.header_bytes() + self.payload_bytes
