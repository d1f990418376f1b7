"""The shared wireless medium.

A transmission is broadcast energy: every node within carrier-sense range of
the sender hears it for the frame's duration; nodes within receive range can
decode it *iff* no other transmission (or their own) overlaps the frame at
their location.  By default there is no capture effect — any overlap
corrupts, which is *more* conservative than the paper's ns-2 (it captures
at 10 dB; ROADMAP item 1 owns the fix).  Radio profiles may pass a
:class:`~repro.phy.profiles.CaptureModel`: the plan then carries a relative
received power per listener and the radio lets the stronger frame survive.
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.phy.neighbors import NeighborCache
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.mac.frames import Frame
    from repro.phy.energy import EnergyLedger
    from repro.phy.profiles import CaptureModel, ProbabilisticReception
    from repro.phy.radio import Radio


class Transmission:
    """One frame in flight on the medium."""

    __slots__ = ("sender", "frame", "start", "end")

    def __init__(self, sender: int, frame: "Frame", start: float, end: float):
        self.sender = sender
        self.frame = frame
        self.start = start
        self.end = end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Transmission {self.frame.kind} from {self.sender} "
            f"[{self.start:.6f}, {self.end:.6f}]>"
        )


# A delivery plan: (radios, in_rx, powers_db, draws, probabilities), see
# Channel._plan_for.  A tuple per listener would be ~60 collector-tracked
# containers per plan, and a flood builds thousands: they, not the protocol,
# tripped the collector.
Plan = Tuple[List["Radio"], List[bool], Iterable[float], Sequence[int], Optional[np.ndarray]]
_ZEROS = repeat(0.0)  # the unread powers column, shared: zip stops with the radios


class Channel:
    """Connects all radios through the :class:`NeighborCache` geometry."""

    def __init__(
        self,
        sim: Simulator,
        neighbors: NeighborCache,
        tracer: Optional[Tracer] = None,
        loss_model: Optional["ProbabilisticReception"] = None,
        rng: Optional[np.random.Generator] = None,
        energy: Optional["EnergyLedger"] = None,
        capture: Optional["CaptureModel"] = None,
    ):
        self._sim = sim
        self._neighbors = neighbors
        self._tracer = tracer or Tracer()
        self._radios: Dict[int, "Radio"] = {}
        self._loss = loss_model
        self.capture = capture
        if loss_model is not None and rng is None:
            # A silent fallback generator here would give every scenario the
            # same fading draws regardless of its seed: probabilistic loss
            # needs an explicitly seeded stream, e.g.
            # RandomStreams(seed).stream("fading") as the builder wires.
            raise SimulationError(
                "a probabilistic loss model requires an explicit rng "
                "(pass a seeded stream such as RandomStreams(seed).stream('fading'))"
            )
        self._rng = rng
        self.energy = energy
        # Per-quantum delivery plans, by sender.  Geometry is frozen within a
        # neighbour-cache quantum, so a sender's plan is assembled once per
        # quantum, column by column from the arrays of one neighbour-cache
        # query, instead of listener by listener per frame.
        self._plans: Dict[int, Plan] = {}
        self._plans_tick = -1
        # The radio column: radios in the neighbour cache's row order, and which
        # rows have one (None while all do); rebuilt after attach.  A list, not an
        # object array: radio -> channel -> column is a cycle, and the collector
        # cannot see through numpy arrays, so the array would leak every run.
        self._radio_rows: Optional[List[Optional["Radio"]]] = None
        self._attached_rows: Optional[np.ndarray] = None

    @property
    def neighbors(self) -> NeighborCache:
        return self._neighbors

    def attach(self, radio: "Radio") -> None:
        if radio.node_id in self._radios:
            raise SimulationError(f"radio for node {radio.node_id} already attached")
        self._radios[radio.node_id] = radio
        self._radio_rows = None

    def radio(self, node_id: int) -> "Radio":
        return self._radios[node_id]

    def transmit(self, sender: "Radio", frame: "Frame", duration: float) -> None:
        """Put ``frame`` on the air for ``duration`` seconds."""
        now = self._sim.now
        tx = Transmission(sender.node_id, frame, now, now + duration)
        if self._tracer.wants("phy.tx"):
            self._tracer.emit(
                now,
                "phy.tx",
                sender=sender.node_id,
                frame_kind=frame.kind.value,
                dst=frame.dst,
                duration=duration,
            )
        sender.begin_transmit(tx)
        plan = self._plan_for(sender.node_id, now)
        radios, decodable, powers, draws, probabilities = plan
        if draws:
            # The frame's k uniforms in one call: the same values, in plan
            # order, that one scalar draw per uncertain listener would take.
            decodable = decodable.copy()
            delivered = (self._rng.random(len(draws)) < probabilities).tolist()
            for row, kept in zip(draws, delivered):
                decodable[row] = kept
        energy = self.energy
        capture = self.capture
        threshold = 0.0 if capture is None else capture.threshold_db
        # One pass over the listeners, in row order.  ``radio.energy`` counts
        # every transmission a radio hears plus its own; a reception in
        # progress is ``receptions[tx] = corrupt`` and only decodable frames
        # get one, since the corrupt flag of carrier-sense-only energy could
        # never be read.
        for radio, receivable, power in zip(radios, decodable, powers):
            # Read before the bump: zero means the listener was clear, so its
            # MAC is told; non-zero is energy from a second source.
            heard = radio.energy
            radio.energy = heard + 1
            if capture is None:
                # Any overlap corrupts, both ways.
                if heard:
                    receptions = radio.receptions
                    for other in receptions:
                        receptions[other] = True
                    if receivable:
                        receptions[tx] = True
                elif receivable:
                    radio.receptions[tx] = False
            else:
                # Pairwise strongest-interferer capture: each decodable
                # frame already on the air survives the new arrival iff its
                # power exceeds the new arrival's by the threshold; the new
                # arrival starts clean iff the listener is not transmitting
                # (half duplex always wins) and it beats the *strongest*
                # energy currently heard by the threshold.
                receptions = radio.receptions
                levels = radio.heard_power
                for other in receptions:
                    if levels[other] < power + threshold:
                        receptions[other] = True
                if receivable:
                    receptions[tx] = radio.sending is not None or any(
                        power < level + threshold for level in levels.values()
                    )
                levels[tx] = power
            if not heard and not radio.mac_idle and radio.mac is not None:
                radio.mac.on_medium_change()
            if energy is not None:
                energy.charge_rx(radio.node_id, duration)
        if energy is not None:
            energy.charge_tx(sender.node_id, duration)
        self._sim.schedule(duration, self._finish, tx, sender, plan)

    def _plan_for(self, sender_id: int, now: float) -> Plan:
        """The sender's listeners for the current quantum, in ascending row order.

        ``powers_db`` is a list of floats only when capture is enabled
        (carrier-sense-only listeners then need it too — their energy is what
        receptions must capture over), otherwise the endless ``repeat(0.0)``,
        so walk a plan with ``zip``, which stops with the radios.  Under a
        loss model ``draws`` lists the in-range positions whose delivery
        probability is below 1 and ``probabilities`` (an array, untracked by
        the collector) those probabilities.  Plans are replaced (never
        mutated) on quantum change, so an in-flight :meth:`_finish` holding a
        stale plan still sees the listeners its frame actually reached.
        """
        neighbors = self._neighbors
        tick = neighbors.tick(now)
        if tick != self._plans_tick:
            self._plans.clear()
            self._plans_tick = tick
        plan = self._plans.get(sender_id)
        if plan is None:
            rows, in_rx, sq = neighbors.listeners(sender_id, now)
            radio_rows = self._radio_rows
            if radio_rows is None:
                radio_rows = self._index_radios()
            if self._attached_rows is not None:
                attached = self._attached_rows[rows]
                rows, in_rx, sq = rows[attached], in_rx[attached], sq[attached]
            capture = self.capture
            loss = self._loss
            powers: Iterable[float] = _ZEROS
            draws: Sequence[int] = ()
            probabilities = None
            if capture is not None or loss is not None:
                # One vectorized sqrt per sender per quantum, of the squared
                # distances the range tests used (np.sqrt is correctly rounded:
                # each element is bit-identical to NeighborCache.distance).
                distances = np.sqrt(sq)
                if capture is not None:
                    powers = list(map(capture.power_db, distances.tolist()))
                if loss is not None:
                    p = loss.delivery_probabilities(distances)
                    # Only in-range rows draw, and certain delivery costs none.
                    uncertain = in_rx & (p < 1.0)
                    draws = uncertain.nonzero()[0].tolist()
                    probabilities = p[uncertain]
            # tolist(): Python bools and floats in the columns, never numpy scalars.
            radios = list(map(radio_rows.__getitem__, rows.tolist()))
            plan = self._plans[sender_id] = (radios, in_rx.tolist(), powers, draws, probabilities)
        return plan

    def _index_radios(self) -> List[Optional["Radio"]]:
        """(Re)build the row-indexed radio column after an attach."""
        radios = [self._radios.get(node_id) for node_id in self._neighbors.node_ids]
        attached = np.array([radio is not None for radio in radios])
        self._radio_rows = radios
        self._attached_rows = None if attached.all() else attached
        return radios

    def _finish(self, tx: Transmission, sender: "Radio", plan: Plan) -> None:
        # End energy at listeners first so the sender's completion callback
        # observes a consistent medium.  One pass, decodable and sensed-only
        # listeners interleaved in row order: the free-medium callbacks arm
        # defer timers, so their order breaks ties between stations leaving the
        # same busy period (decodable-first moves every golden digest).
        capture = self.capture is not None
        frame = tx.frame
        for radio, in_rx in zip(plan[0], plan[1]):
            if capture:
                del radio.heard_power[tx]
            radio.energy = heard = radio.energy - 1
            corrupt = radio.receptions.pop(tx, None) if in_rx else None
            if corrupt is None:
                # Carrier-sense-only energy (out of range, or lost): no decode
                # outcome to deliver, just the possible busy -> free transition.
                if not heard and not radio.mac_idle and radio.mac is not None:
                    radio.mac.on_medium_change()
                continue
            mac = radio.mac
            if mac is None:
                continue
            if corrupt:
                # A decodable frame was ruined (collision / half duplex): the
                # MAC may apply EIFS deference.
                on_corrupt = getattr(mac, "on_corrupt_frame", None)
                if on_corrupt is not None:
                    on_corrupt()
            if not heard and not radio.mac_idle:
                mac.on_medium_change()
            if not corrupt:
                mac.on_frame(frame)
        sender.end_transmit(tx)
