"""A CSMA/CA MAC modelled on the IEEE 802.11 distributed coordination
function (DCF).

Simplifications relative to the full standard, none of which affect the
phenomena the paper studies:

* backoff is tracked as continuous remaining time rather than aligned slot
  boundaries (pause/resume semantics are preserved);
* a single retry counter per packet (default limit 7) instead of separate
  short/long counters;
* SIFS responses (CTS, ACK) are always attempted unless the radio is mid
  transmission.

The crucial behaviour for DSR — **link-layer failure feedback** — is exact:
when the retry limit is exhausted for a unicast packet, the MAC reports the
failed packet and next hop to the routing layer.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.mac.frames import Frame, FrameKind
from repro.mac.ifq import InterfaceQueue
from repro.mac.timing import MacTiming
from repro.net.addresses import BROADCAST
from repro.net.packet import Packet
from repro.phy.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.timers import Timer
from repro.sim.trace import Tracer


def ignore(*_args: object) -> None:
    """The callback every hook holds until it is wired."""


class _Attempt:
    """The unicast (or broadcast) currently being worked on."""

    __slots__ = ("packet", "next_hop", "retries", "seq")

    def __init__(self, packet: Packet, next_hop: int, seq: int):
        self.packet = packet
        self.next_hop = next_hop
        self.retries = 0
        self.seq = seq


class DcfMac:
    """Per-node DCF MAC instance.

    Upper-layer wiring (set by :class:`repro.net.node.Node`):

    * ``deliver(packet)`` — a decoded network packet addressed to this node
      (or broadcast).
    * ``promiscuous(packet)`` — an overheard data frame destined elsewhere.
    * ``on_unicast_success(packet, next_hop)`` — ACK received.
    * ``on_unicast_failure(packet, next_hop)`` — retry limit exhausted; this
      is DSR's link-break feedback.
    """

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        radio: Radio,
        rng: np.random.Generator,
        timing: Optional[MacTiming] = None,
        tracer: Optional[Tracer] = None,
        queue_capacity: int = 50,
    ):
        self.node_id = node_id
        self._sim = sim
        self._radio = radio
        self._rng = rng
        self.timing = timing or MacTiming()  # also resolves _difs/_eifs
        self._tracer = tracer or Tracer()
        self.queue = InterfaceQueue(queue_capacity)
        radio.mac = self
        # Tell the radio it can skip medium-change callbacks while we have
        # no transmit attempt in flight (see Radio.mac_idle); kept exactly
        # in sync with ``_current`` below.
        radio.mac_idle = True

        # Upper-layer callbacks (wired by the node).
        self.deliver: Callable[[Packet], None] = ignore
        self.promiscuous: Callable[[Packet], None] = ignore
        self.on_unicast_success: Callable[[Packet, int], None] = ignore
        self.on_unicast_failure: Callable[[Packet, int], None] = ignore

        self._current: Optional[_Attempt] = None
        self._awaiting: Optional[str] = None  # 'cts' | 'ack'
        self._cw = self._timing.cw_min
        self._backoff_remaining = 0.0
        # Non-None exactly while the defer timer runs.
        self._defer_started: Optional[float] = None
        self._defer_ifs = self._difs  # IFS in force for the current defer
        self._eifs_pending = False
        self._defer_timer = Timer(sim, self._defer_expired)
        self._response_timer = Timer(sim, self._response_timeout)
        self._nav_until = 0.0
        # Engine sequence number held for the wake-up at ``_nav_until`` when
        # the NAV was set with no attempt in hand (see on_frame).
        self._nav_wake_seq: Optional[int] = None
        self._seq = 0
        self._last_seq: Dict[int, int] = {}

    @property
    def timing(self) -> MacTiming:
        return self._timing

    @timing.setter
    def timing(self, timing: MacTiming) -> None:
        # MacTiming derives DIFS/EIFS on every read, and the defer path wants
        # them on every medium transition: resolve them once per timing.
        self._timing = timing
        self._difs = timing.difs
        self._eifs = timing.eifs
        self._use_eifs = timing.use_eifs

    # ------------------------------------------------------------------
    # Upper-layer entry point
    # ------------------------------------------------------------------

    def enqueue(self, packet: Packet, next_hop: int) -> bool:
        """Queue a packet for transmission to ``next_hop`` (MAC address).

        Returns False if the interface queue dropped it.
        """
        accepted = self.queue.push(packet, next_hop)
        if not accepted and self._tracer.wants("ifq.drop"):
            self._tracer.emit(
                self._sim.now,
                "ifq.drop",
                node=self.node_id,
                pkt_kind=packet.kind.value,
                uid=packet.uid,
            )
        self._try_start()
        return accepted

    # ------------------------------------------------------------------
    # Transmit pipeline
    # ------------------------------------------------------------------

    def _try_start(self) -> None:
        if self._current is not None:
            return
        entry = self.queue.pop()
        if entry is None:
            return
        self._seq += 1
        self._current = _Attempt(entry.packet, entry.next_hop, self._seq)
        self._radio.mac_idle = False
        wake_seq = self._nav_wake_seq
        if wake_seq is not None:
            self._nav_wake_seq = None
            if self._sim.now < self._nav_until:
                # The NAV armed while we were idle now matters: put its
                # expiry wake-up where on_frame would have scheduled it.
                self._sim.schedule_reserved(
                    self._nav_until, wake_seq, self.on_medium_change
                )
        self._cw = self._timing.cw_min
        self._draw_backoff()
        self._begin_defer()

    def _draw_backoff(self) -> None:
        slots = int(self._rng.integers(0, self._cw + 1))
        self._backoff_remaining = slots * self._timing.slot

    def _medium_free(self) -> bool:
        return not self._radio.energy and self._sim.now >= self._nav_until

    def _begin_defer(self) -> None:
        if (
            self._current is None
            or self._awaiting is not None
            or self._defer_started is not None
        ):
            return
        if self._medium_free():
            self._arm_defer()
        # else: resumed by on_medium_change when the medium clears

    def _arm_defer(self) -> None:
        self._defer_started = self._sim.now
        self._defer_ifs = (
            self._eifs if (self._use_eifs and self._eifs_pending) else self._difs
        )
        self._defer_timer.start(self._defer_ifs + self._backoff_remaining)

    def _pause_defer(self, started: float) -> None:
        """Stop the defer timer running since ``started``, banking its consumed backoff."""
        consumed = self._sim.now - started - self._defer_ifs
        if consumed > 0.0:
            remaining = self._backoff_remaining - consumed
            self._backoff_remaining = remaining if remaining > 0.0 else 0.0
        self._defer_timer.cancel()
        self._defer_started = None

    def _defer_expired(self) -> None:
        self._defer_started = None
        if self._current is None:
            return
        if not self._medium_free():  # defensive: same-instant race
            self._begin_defer()
            return
        attempt = self._current
        packet_bytes = attempt.packet.size_bytes()
        timing = self._timing
        if attempt.next_hop == BROADCAST:
            frame = Frame(
                FrameKind.DATA,
                self.node_id,
                BROADCAST,
                duration=0.0,
                seq=attempt.seq,
                packet=attempt.packet,
            )
            self._transmit(frame, timing.data_airtime(packet_bytes))
        elif packet_bytes >= timing.rts_threshold:
            nav = (
                timing.cts_airtime
                + timing.data_airtime(packet_bytes)
                + timing.ack_airtime
                + 3 * timing.sifs
            )
            frame = Frame(
                FrameKind.RTS,
                self.node_id,
                attempt.next_hop,
                duration=nav,
                seq=attempt.seq,
            )
            self._transmit(frame, timing.rts_airtime)
        else:
            self._send_data_unicast()

    def _send_data_unicast(self) -> None:
        if self._current is None:
            return
        attempt = self._current
        timing = self._timing
        nav = timing.ack_airtime + timing.sifs
        frame = Frame(
            FrameKind.DATA,
            self.node_id,
            attempt.next_hop,
            duration=nav,
            seq=attempt.seq,
            packet=attempt.packet,
        )
        self._transmit(frame, timing.data_airtime(attempt.packet.size_bytes()))

    def _transmit(self, frame: Frame, airtime: float) -> None:
        if self._tracer.wants("mac.tx"):
            # ``_value_`` is what ``.value`` returns, minus the descriptor.
            pkt_kind = frame.packet.kind._value_ if frame.packet is not None else None
            self._tracer.emit(
                self._sim.now,
                "mac.tx",
                node=self.node_id,
                frame_kind=frame.kind._value_,
                dst=frame.dst,
                pkt_kind=pkt_kind,
            )
        self._radio.transmit(frame, airtime)

    # ------------------------------------------------------------------
    # Radio callbacks
    # ------------------------------------------------------------------

    def on_medium_change(self) -> None:
        """The radio's busy state (or the NAV) may have changed."""
        if self._current is None:
            # Nothing queued: the defer timer cannot be running (it is only
            # armed while an attempt exists), so there is nothing to start or
            # pause.  This is the common case — every transmission pings
            # every carrier-sense neighbour, and most of them are idle.
            return
        if self._radio.energy or self._sim.now < self._nav_until:
            started = self._defer_started
            if started is not None:
                self._pause_defer(started)
        elif self._awaiting is None and self._defer_started is None:
            self._arm_defer()

    def on_tx_complete(self, frame: Frame) -> None:
        """Our own frame just left the antenna; sequence the exchange."""
        attempt = self._current
        if attempt is None:
            return  # a SIFS response (CTS/ACK); nothing to sequence
        timing = self._timing
        if frame.kind is FrameKind.RTS and frame.seq == attempt.seq:
            self._awaiting = "cts"
            self._response_timer.start(timing.cts_timeout)
        elif frame.kind is FrameKind.DATA and frame.seq == attempt.seq:
            if frame.is_broadcast:
                self._finish_current(success=True)
            else:
                self._awaiting = "ack"
                self._response_timer.start(timing.ack_timeout)

    def on_corrupt_frame(self) -> None:
        """The radio heard a frame it could not decode: defer EIFS next
        (802.11's protection for the unseen exchange's ACK)."""
        if self._use_eifs:
            self._eifs_pending = True

    def on_frame(self, frame: Frame) -> None:
        """A frame decoded by our radio."""
        self._eifs_pending = False  # a correct reception resets EIFS
        if frame.dst == self.node_id:
            self._on_frame_for_us(frame)
            return
        if frame.dst == BROADCAST:
            if frame.kind is FrameKind.DATA and frame.packet is not None:
                self.deliver(frame.packet)
            return
        # Overheard unicast traffic: honour the NAV, then snoop.
        if frame.duration > 0:
            until = self._sim.now + frame.duration
            if until > self._nav_until:
                self._nav_until = until
                # Also when idle: after a broadcast the defer timer can run
                # with no attempt in hand (see docs/protocol.md); NAV pauses it.
                started = self._defer_started
                if started is not None:
                    self._pause_defer(started)
                if self._current is None:
                    # The expiry wake-up does nothing unless an attempt begins
                    # before it — the common case for an overhearer.  Hold its
                    # place in the event order; _try_start schedules it if it
                    # comes to matter.  An earlier reservation is dropped: it
                    # would find the NAV extended and the defer timer stopped.
                    self._nav_wake_seq = self._sim.reserve_seq()
                else:
                    self._sim.schedule_at(until, self.on_medium_change)
        if frame.kind is FrameKind.DATA and frame.packet is not None:
            self.promiscuous(frame.packet)

    def _on_frame_for_us(self, frame: Frame) -> None:
        timing = self._timing
        if frame.kind is FrameKind.RTS:
            cts = Frame(
                FrameKind.CTS,
                self.node_id,
                frame.src,
                duration=max(0.0, frame.duration - timing.cts_airtime - timing.sifs),
            )
            self._sim.schedule(timing.sifs, self._send_response, cts, timing.cts_airtime)
        elif frame.kind is FrameKind.CTS:
            if (
                self._awaiting == "cts"
                and self._current is not None
                and frame.src == self._current.next_hop
            ):
                self._response_timer.cancel()
                self._awaiting = None
                self._sim.schedule(timing.sifs, self._data_after_cts)
        elif frame.kind is FrameKind.DATA:
            ack = Frame(FrameKind.ACK, self.node_id, frame.src, duration=0.0)
            self._sim.schedule(timing.sifs, self._send_response, ack, timing.ack_airtime)
            if self._last_seq.get(frame.src) != frame.seq:
                self._last_seq[frame.src] = frame.seq
                if frame.packet is not None:
                    self.deliver(frame.packet)
        elif frame.kind is FrameKind.ACK:
            if self._awaiting == "ack" and self._current is not None:
                self._response_timer.cancel()
                self._awaiting = None
                self._finish_current(success=True)

    # ------------------------------------------------------------------
    # Exchange continuation and failure handling
    # ------------------------------------------------------------------

    def _send_response(self, frame: Frame, airtime: float) -> None:
        if self._radio.transmitting:
            return  # cannot respond mid-transmission; peer will retry
        self._transmit(frame, airtime)

    def _data_after_cts(self) -> None:
        if self._current is None:
            return
        if self._radio.transmitting:  # pragma: no cover - defensive
            self._handle_retry()
            return
        self._send_data_unicast()

    def _response_timeout(self) -> None:
        self._awaiting = None
        self._handle_retry()

    def _handle_retry(self) -> None:
        attempt = self._current
        if attempt is None:
            return
        attempt.retries += 1
        if attempt.retries > self._timing.retry_limit:
            self._finish_current(success=False)
            return
        self._cw = min(2 * (self._cw + 1) - 1, self._timing.cw_max)
        self._draw_backoff()
        self._begin_defer()

    def _finish_current(self, success: bool) -> None:
        attempt = self._current
        assert attempt is not None
        self._current = None
        self._radio.mac_idle = True
        self._awaiting = None
        self._cw = self._timing.cw_min
        if attempt.next_hop != BROADCAST:
            if success:
                self.on_unicast_success(attempt.packet, attempt.next_hop)
            else:
                if self._tracer.wants("mac.fail"):
                    self._tracer.emit(
                        self._sim.now,
                        "mac.fail",
                        node=self.node_id,
                        next_hop=attempt.next_hop,
                        pkt_kind=attempt.packet.kind.value,
                        uid=attempt.packet.uid,
                    )
                self.on_unicast_failure(attempt.packet, attempt.next_hop)
        self._try_start()
