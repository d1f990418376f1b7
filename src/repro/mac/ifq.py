"""The interface queue between the routing layer and the MAC.

Mirrors the CMU Monarch ns-2 configuration the paper used: a 50-packet
drop-tail queue in which routing-protocol packets have priority over data
packets — both for service order and for survival when the queue overflows.

The bands are plain lists: every node has two, mostly empty, and an empty
``deque`` costs several times an empty list.  At 50 entries a ``pop(0)``
is a short memmove.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.net.packet import Packet


@dataclass
class QueuedPacket:
    packet: Packet
    next_hop: int


class InterfaceQueue:
    """Two-band priority queue (routing control above data)."""

    def __init__(self, capacity: int = 50):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._control: List[QueuedPacket] = []
        self._data: List[QueuedPacket] = []
        self.drops = 0

    def __len__(self) -> int:
        return len(self._control) + len(self._data)

    @property
    def full(self) -> bool:
        return len(self) >= self.capacity

    def push(self, packet: Packet, next_hop: int) -> bool:
        """Enqueue; returns False if the packet had to be dropped."""
        entry = QueuedPacket(packet, next_hop)
        if packet.kind.is_routing_control:
            if self.full:
                # Routing packets evict the youngest data packet if possible.
                if self._data:
                    self._data.pop()
                    self.drops += 1
                else:
                    self.drops += 1
                    return False
            self._control.append(entry)
            return True
        if self.full:
            self.drops += 1
            return False
        self._data.append(entry)
        return True

    def pop(self) -> Optional[QueuedPacket]:
        if self._control:
            return self._control.pop(0)
        if self._data:
            return self._data.pop(0)
        return None

    def peek(self) -> Optional[QueuedPacket]:
        if self._control:
            return self._control[0]
        if self._data:
            return self._data[0]
        return None
