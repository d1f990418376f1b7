"""A node's protocol stack: application <-> routing agent <-> MAC <-> radio.

``Node`` owns the layer objects and wires their callbacks together.  The
routing agent is pluggable — DSR (:mod:`repro.core`) and AODV
(:mod:`repro.baselines.aodv`) both implement the small ``RoutingAgent``
surface the node expects:

* ``originate(packet)``            — application wants this packet delivered,
* ``handle_packet(packet)``        — a packet addressed to us arrived,
* ``handle_promiscuous(packet)``   — we overheard someone else's packet,
* ``handle_unicast_success(packet, next_hop)``,
* ``handle_unicast_failure(packet, next_hop)`` — link-layer feedback.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from repro.mac.dcf import DcfMac, ignore
from repro.mac.timing import MacTiming
from repro.net.packet import Packet, PacketKind
from repro.phy.channel import Channel
from repro.phy.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer

# Room for ~16.7M packets per node before uid collision — far beyond any run.
_UID_STRIDE = 1 << 24


class Node:
    """One mobile host: radio, MAC, routing agent and application hooks."""

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        channel: Channel,
        agent: Any,
        mac_rng: np.random.Generator,
        timing: Optional[MacTiming] = None,
        tracer: Optional[Tracer] = None,
        queue_capacity: int = 50,
    ):
        self.node_id = node_id
        self.sim = sim
        self.tracer = tracer or Tracer()
        self.radio = Radio(node_id, channel)
        self.mac = DcfMac(
            node_id,
            sim,
            self.radio,
            mac_rng,
            timing=timing,
            tracer=self.tracer,
            queue_capacity=queue_capacity,
        )
        self.agent = agent
        self._uid_counter = 0

        # Application-level receive hook (sinks attach here).
        self.app_receive: Callable[[Packet], None] = ignore

        # Wire MAC -> agent.
        self.mac.deliver = agent.handle_packet
        self.mac.promiscuous = agent.handle_promiscuous
        self.mac.on_unicast_success = agent.handle_unicast_success
        self.mac.on_unicast_failure = agent.handle_unicast_failure
        agent.attach(self)

    # -- application side ---------------------------------------------------

    def next_uid(self) -> int:
        """A packet uid unique across the whole simulation."""
        self._uid_counter += 1
        return self.node_id * _UID_STRIDE + self._uid_counter

    def send_data(self, dst: int, payload_bytes: int, info: Any = None) -> Packet:
        """Originate an application data packet toward ``dst``.

        ``info`` carries an optional application payload object (e.g. a TCP
        segment header) — opaque to the routing layer.
        """
        packet = Packet(
            kind=PacketKind.DATA,
            src=self.node_id,
            dst=dst,
            uid=self.next_uid(),
            payload_bytes=payload_bytes,
            born=self.sim.now,
            info=info,
        )
        if self.tracer.wants("app.send"):
            self.tracer.emit(
                self.sim.now, "app.send", src=self.node_id, dst=dst, uid=packet.uid
            )
        self.agent.originate(packet)
        return packet

    def deliver_to_app(self, packet: Packet) -> None:
        """Called by the routing agent when a data packet reaches us."""
        if self.tracer.wants("app.recv"):
            self.tracer.emit(
                self.sim.now,
                "app.recv",
                src=packet.src,
                dst=self.node_id,
                uid=packet.uid,
                born=packet.born,
            )
        self.app_receive(packet)
