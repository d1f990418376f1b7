"""The AODV routing agent.

Implements the on-demand core of RFC 3561 over the same node/MAC/radio
stack as DSR: flooded RREQs with reverse-path setup, sequence-numbered
replies from the destination or fresh intermediate routes, hop-by-hop data
forwarding with active-route lifetimes, and RERR dissemination driven by
link-layer feedback.  Omitted (deliberately, to match the paper's DSR
environment): hello beacons, local repair, and gratuitous RREPs.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.aodv.messages import AodvError, AodvReply, AodvRequest
from repro.baselines.aodv.table import RoutingTable
from repro.core.request_table import SeenTable
from repro.net.addresses import BROADCAST
from repro.net.packet import Packet, PacketKind
from repro.net.sendbuffer import SendBuffer
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer, Timer
from repro.sim.trace import Tracer


class _Discovery:
    __slots__ = ("attempts", "timer")

    def __init__(self, timer: Timer):
        self.attempts = 0
        self.timer = timer


class AodvAgent:
    """Ad hoc On-demand Distance Vector routing for a single node.

    Discovery is an expanding ring search (RFC 3561 section 6.4): it begins
    with a small-TTL flood and widens (TTL 1 -> 3 -> 5 -> 7 -> network-wide)
    so nearby destinations don't cost network floods.
    """

    ACTIVE_ROUTE_TIMEOUT = 10.0
    DISCOVERY_BACKOFF_BASE = 0.5
    DISCOVERY_BACKOFF_MAX = 10.0
    RREQ_TTL = 64
    RING_TTLS = (1, 3, 5, 7)  # then network-wide

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        rng: Optional[np.random.Generator] = None,
        tracer: Optional[Tracer] = None,
        validity_oracle: Optional[Callable[[Sequence[int]], bool]] = None,
    ):
        self.node_id = node_id
        self._sim = sim
        # Test-convenience fallback only: the scenario builder always injects
        # a RandomStreams stream derived from the scenario seed.
        self._rng = rng or np.random.default_rng(node_id)
        self._tracer = tracer or Tracer()
        self._oracle = validity_oracle  # unused; kept for builder symmetry

        self.table = RoutingTable(active_route_timeout=self.ACTIVE_ROUTE_TIMEOUT)
        self.send_buffer = SendBuffer()
        self._seen_requests = SeenTable(capacity=1024, lifetime=30.0)
        self._discoveries: Dict[int, _Discovery] = {}
        self._seq = 0
        self._request_counter = 0
        self.node = None
        self._buffer_sweep = PeriodicTimer(sim, 1.0, self._sweep_send_buffer)

    # ------------------------------------------------------------------

    def attach(self, node) -> None:
        self.node = node
        self._buffer_sweep.start()

    def _now(self) -> float:
        return self._sim.now

    def _emit(self, kind: str, **fields) -> None:
        self._tracer.emit(self._sim.now, kind, node=self.node_id, **fields)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # ------------------------------------------------------------------
    # Application-facing
    # ------------------------------------------------------------------

    def originate(self, packet: Packet) -> None:
        if packet.dst == self.node_id:
            self.node.deliver_to_app(packet)
            return
        entry = self.table.lookup(packet.dst, self._now())
        if entry is not None:
            self._forward_data(packet, entry.next_hop)
        else:
            evicted = self.send_buffer.add(packet, self._now())
            if evicted is not None:
                self._emit("aodv.drop", reason="send-buffer-overflow", uid=evicted.uid)
            self._start_discovery(packet.dst)

    def _forward_data(self, packet: Packet, next_hop: int) -> None:
        self.table.refresh(packet.dst, self._now())
        self.table.refresh(next_hop, self._now())
        self.table.refresh(packet.src, self._now())
        self.node.mac.enqueue(packet.clone(), next_hop)

    # ------------------------------------------------------------------
    # Route discovery
    # ------------------------------------------------------------------

    def _start_discovery(self, target: int) -> None:
        state = self._discoveries.get(target)
        if state is not None and state.timer.running:
            return
        if state is None:
            state = _Discovery(Timer(self._sim, self._discovery_timeout))
            self._discoveries[target] = state
        state.attempts = 0
        self._send_request(target, attempt=0)
        state.timer.start(self.DISCOVERY_BACKOFF_BASE, target)

    def _discovery_timeout(self, target: int) -> None:
        state = self._discoveries.get(target)
        if state is None:
            return
        if (
            self.table.lookup(target, self._now()) is not None
            or not self.send_buffer.has_packets_for(target)
        ):
            self._discoveries.pop(target, None)
            self._drain_send_buffer(target)
            return
        state.attempts += 1
        self._send_request(target, attempt=state.attempts)
        backoff = min(
            self.DISCOVERY_BACKOFF_BASE * (2**state.attempts),
            self.DISCOVERY_BACKOFF_MAX,
        )
        state.timer.start(backoff, target)

    def _request_ttl(self, attempt: int) -> int:
        """Expanding ring search (RFC 3561 section 6.4)."""
        if attempt < len(self.RING_TTLS):
            return self.RING_TTLS[attempt]
        return self.RREQ_TTL

    def _send_request(self, target: int, attempt: int = 0) -> None:
        self._request_counter += 1
        request = AodvRequest(
            origin=self.node_id,
            origin_seq=self._next_seq(),
            target=target,
            target_seq=self.table.last_known_seq(target),
            request_id=self._request_counter,
            hop_count=0,
        )
        request.last_hop = self.node_id  # dynamic attribute: per-hop sender
        ttl = self._request_ttl(attempt)
        packet = Packet(
            kind=PacketKind.AODV_RREQ,
            src=self.node_id,
            dst=BROADCAST,
            uid=self.node.next_uid(),
            born=self._now(),
            ttl=ttl,
            info=request,
        )
        self._emit("aodv.rreq_sent", target=target, ttl=ttl)
        self._seen_requests.insert((self.node_id, self._request_counter), self._now())
        self.node.mac.enqueue(packet, BROADCAST)

    # ------------------------------------------------------------------
    # Packet reception
    # ------------------------------------------------------------------

    def handle_packet(self, packet: Packet) -> None:
        if packet.kind is PacketKind.DATA:
            self._handle_data(packet)
        elif packet.kind is PacketKind.AODV_RREQ:
            self._handle_request(packet)
        elif packet.kind is PacketKind.AODV_RREP:
            self._handle_reply(packet)
        elif packet.kind is PacketKind.AODV_RERR:
            self._handle_error(packet)

    def _handle_data(self, packet: Packet) -> None:
        if packet.dst == self.node_id:
            self.node.deliver_to_app(packet)
            return
        entry = self.table.lookup(packet.dst, self._now())
        if entry is None:
            self._emit("aodv.drop", reason="no-route-forwarding", uid=packet.uid)
            self._broadcast_error([(packet.dst, self.table.last_known_seq(packet.dst))])
            return
        self._forward_data(packet, entry.next_hop)

    def _handle_request(self, packet: Packet) -> None:
        request: AodvRequest = packet.info
        me = self.node_id
        if request.origin == me:
            return
        last_hop = getattr(request, "last_hop", request.origin)
        # Reverse route toward the originator.
        self.table.update(
            request.origin,
            next_hop=last_hop,
            hop_count=request.hop_count + 1,
            seq=request.origin_seq,
            now=self._now(),
        )
        if request.target != me and self._seen_requests.seen(
            (request.origin, request.request_id), self._now()
        ):
            return
        self._seen_requests.insert((request.origin, request.request_id), self._now())

        if request.target == me:
            self._seq = max(self._seq, request.target_seq)
            reply = AodvReply(
                origin=request.origin,
                target=me,
                target_seq=self._next_seq(),
                hop_count=0,
            )
            self._send_reply(reply)
            return

        entry = self.table.lookup(request.target, self._now())
        if entry is not None and entry.seq >= request.target_seq and entry.seq > 0:
            # Intermediate reply from a sufficiently fresh route — AODV's
            # (indirect) form of replying from a cache.
            reply = AodvReply(
                origin=request.origin,
                target=request.target,
                target_seq=entry.seq,
                hop_count=entry.hop_count,
            )
            self.table.add_precursor(request.target, last_hop)
            self._emit("aodv.cache_reply", target=request.target)
            self._send_reply(reply)
            return

        if packet.ttl > 1:
            forwarded_info = replace(request, hop_count=request.hop_count + 1)
            forwarded_info.last_hop = me
            forwarded = packet.clone(ttl=packet.ttl - 1)
            forwarded.info = forwarded_info
            jitter = float(self._rng.uniform(0.0, 0.01))
            self._sim.schedule(jitter, self.node.mac.enqueue, forwarded, BROADCAST)

    def _send_reply(self, reply: AodvReply) -> None:
        entry = self.table.lookup(reply.origin, self._now())
        if entry is None:
            return
        reply.last_hop = self.node_id
        packet = Packet(
            kind=PacketKind.AODV_RREP,
            src=self.node_id,
            dst=reply.origin,
            uid=self.node.next_uid(),
            born=self._now(),
            info=reply,
        )
        self._emit("aodv.rrep_sent", origin=reply.origin, target=reply.target)
        self.node.mac.enqueue(packet, entry.next_hop)

    def _handle_reply(self, packet: Packet) -> None:
        reply: AodvReply = packet.info
        me = self.node_id
        last_hop = getattr(reply, "last_hop", packet.src)
        # Forward route toward the reply's target.
        self.table.update(
            reply.target,
            next_hop=last_hop,
            hop_count=reply.hop_count + 1,
            seq=reply.target_seq,
            now=self._now(),
            lifetime=reply.lifetime,
        )
        if reply.origin == me:
            self._finish_discovery(reply.target)
            self._drain_send_buffer(reply.target)
            return
        entry = self.table.lookup(reply.origin, self._now())
        if entry is None:
            self._emit("aodv.drop", reason="no-reverse-route", uid=packet.uid)
            return
        self.table.add_precursor(reply.target, entry.next_hop)
        forwarded_info = replace(reply, hop_count=reply.hop_count + 1)
        forwarded_info.last_hop = me
        forwarded = packet.clone()
        forwarded.info = forwarded_info
        self.node.mac.enqueue(forwarded, entry.next_hop)

    def _finish_discovery(self, target: int) -> None:
        state = self._discoveries.pop(target, None)
        if state is not None:
            state.timer.cancel()

    def _drain_send_buffer(self, target: int) -> None:
        for waiting in self.send_buffer.take_for(target):
            entry = self.table.lookup(target, self._now())
            if entry is None:
                self.send_buffer.add(waiting, self._now())
                self._start_discovery(target)
                return
            self._forward_data(waiting, entry.next_hop)

    # ------------------------------------------------------------------
    # Route maintenance
    # ------------------------------------------------------------------

    def handle_unicast_success(self, packet: Packet, next_hop: int) -> None:
        """Active-route lifetimes were already refreshed at enqueue time."""

    def handle_unicast_failure(self, packet: Packet, next_hop: int) -> None:
        self._emit("aodv.link_break", next_hop=next_hop, pkt_kind=packet.kind.value)
        unreachable: List[Tuple[int, int]] = []
        for entry in self.table.routes_via(next_hop):
            broken = self.table.invalidate(entry.destination)
            if broken is not None:
                unreachable.append((broken.destination, broken.seq))
        if unreachable:
            self._broadcast_error(unreachable)
        if packet.kind is not PacketKind.DATA:
            return
        if packet.src == self.node_id:
            # Re-queue and rediscover, like a DSR source would.
            self.send_buffer.add(packet, self._now())
            self._start_discovery(packet.dst)
        else:
            self._emit("aodv.drop", reason="forwarding-failure", uid=packet.uid)

    def _broadcast_error(self, unreachable: List[Tuple[int, int]]) -> None:
        error = AodvError(unreachable=list(unreachable))
        error.reporter = self.node_id
        packet = Packet(
            kind=PacketKind.AODV_RERR,
            src=self.node_id,
            dst=BROADCAST,
            uid=self.node.next_uid(),
            born=self._now(),
            ttl=1,
            info=error,
        )
        self._emit("aodv.rerr_sent", count=len(unreachable))
        self.node.mac.enqueue(packet, BROADCAST)

    def _handle_error(self, packet: Packet) -> None:
        error: AodvError = packet.info
        reporter = getattr(error, "reporter", packet.src)
        cascaded: List[Tuple[int, int]] = []
        for dst, seq in error.unreachable:
            entry = self.table.entry(dst)
            if entry is not None and entry.valid and entry.next_hop == reporter:
                broken = self.table.invalidate(dst)
                if broken is not None:
                    broken.seq = max(broken.seq, seq)
                    cascaded.append((dst, broken.seq))
        if cascaded:
            self._broadcast_error(cascaded)

    # ------------------------------------------------------------------
    # Promiscuous hook (unused by AODV) and sweeps
    # ------------------------------------------------------------------

    def handle_promiscuous(self, packet: Packet) -> None:
        """AODV does not snoop; present for stack-wiring compatibility."""

    def _sweep_send_buffer(self) -> None:
        for expired in self.send_buffer.expire(self._now()):
            self._emit("aodv.drop", reason="send-buffer-timeout", uid=expired.uid)
        for dst in self.send_buffer.destinations():
            state = self._discoveries.get(dst)
            if state is None or not state.timer.running:
                self._start_discovery(dst)
