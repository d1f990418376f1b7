"""The DSR send buffer.

Packets waiting for a route (discovery in progress) are buffered *only at
the traffic source*, exactly as in the CMU ns-2 model the paper used:
capacity 64 packets, and a packet is dropped if it has waited more than 30
seconds.  When the buffer is full the oldest packet is evicted.

The entries are a plain list (64 at most; most nodes never buffer at all,
and an empty ``deque`` costs several times an empty list).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.net.packet import Packet


@dataclass
class BufferedPacket:
    packet: Packet
    enqueued_at: float


class SendBuffer:
    """A bounded, aging buffer of packets awaiting routes."""

    def __init__(self, capacity: int = 64, max_wait: float = 30.0):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if max_wait <= 0:
            raise ValueError("max_wait must be positive")
        self.capacity = capacity
        self.max_wait = max_wait
        self._entries: List[BufferedPacket] = []

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, packet: Packet, now: float) -> Optional[Packet]:
        """Buffer ``packet``; returns an evicted packet if the buffer was
        full (the oldest entry is sacrificed)."""
        evicted = None
        if len(self._entries) >= self.capacity:
            evicted = self._entries.pop(0).packet
        self._entries.append(BufferedPacket(packet, now))
        return evicted

    def take_for(self, dst: int) -> List[Packet]:
        """Remove and return all buffered packets destined for ``dst``."""
        taken = [entry.packet for entry in self._entries if entry.packet.dst == dst]
        if taken:
            self._entries = [
                entry for entry in self._entries if entry.packet.dst != dst
            ]
        return taken

    def destinations(self) -> List[int]:
        """Distinct destinations with at least one buffered packet."""
        seen: List[int] = []
        for entry in self._entries:
            if entry.packet.dst not in seen:
                seen.append(entry.packet.dst)
        return seen

    def has_packets_for(self, dst: int) -> bool:
        return any(entry.packet.dst == dst for entry in self._entries)

    def expire(self, now: float) -> List[Packet]:
        """Drop and return every packet older than ``max_wait``."""
        expired: List[Packet] = []
        while self._entries and now - self._entries[0].enqueued_at > self.max_wait:
            expired.append(self._entries.pop(0).packet)
        # Entries are appended in time order, so the scan above is complete.
        return expired

    def drain(self) -> List[Packet]:
        """Remove and return everything (used at teardown for accounting)."""
        packets = [entry.packet for entry in self._entries]
        self._entries.clear()
        return packets
