"""Per-node half-duplex transceiver.

The radio holds what a node currently hears and sends.  Whether a heard
frame survives is decided while the channel walks a frame's listeners (see
:meth:`repro.phy.channel.Channel.transmit`): decodable means the frame was
in receive range, no other heard transmission overlapped any part of it
(or, under a capture profile, none strong enough), and this radio was not
itself transmitting at any point during it.

The MAC attaches via three callbacks, plus an optional fourth:

* ``on_medium_change()`` — physical carrier-sense transitions,
* ``on_frame(frame)`` — a successfully decoded frame,
* ``on_tx_complete(frame)`` — the radio finished sending our own frame,
* ``on_corrupt_frame()`` — a decodable frame was ruined (EIFS), if defined.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.errors import SimulationError
from repro.phy.channel import Channel, Transmission

if TYPE_CHECKING:  # pragma: no cover
    from repro.mac.frames import Frame


class Radio:
    """A node's interface to the shared channel."""

    def __init__(self, node_id: int, channel: Channel):
        self.node_id = node_id
        self._channel = channel
        self.mac = None  # set by the MAC layer during stack wiring
        # Maintained by the MAC: True only when it provably ignores medium
        # transitions (no transmit attempt in progress).  The default False
        # means "always notify", which keeps custom/test MACs correct without
        # them knowing the flag exists.  Most energy transitions happen at
        # idle bystanders, so skipping the callback here is a real win.
        self.mac_idle = False
        # What this radio currently hears.  The channel's delivery passes
        # (Channel.transmit / Channel._finish) own the reception rules and
        # update these for every listener of a frame in one loop; the radio
        # itself only touches them for its own half-duplex transmissions.
        self.sending: Optional[Transmission] = None
        #: In-flight transmissions this radio hears, decodable or not, plus
        #: its own: physical carrier sense is ``energy > 0``.
        self.energy: int = 0
        #: In-flight decodable transmissions -> corrupt so far?
        self.receptions: Dict[Transmission, bool] = {}
        #: Relative power of every transmission heard (capture profiles only).
        self.heard_power: Dict[Transmission, float] = {}
        channel.attach(self)

    # -- state queries -----------------------------------------------------

    @property
    def busy(self) -> bool:
        """Physical carrier sense: energy on the air or transmitting."""
        return self.energy > 0

    @property
    def transmitting(self) -> bool:
        return self.sending is not None

    # -- transmit path -----------------------------------------------------

    def transmit(self, frame: "Frame", duration: float) -> None:
        """Hand a frame to the channel (the MAC has already deferred)."""
        if self.sending is not None:
            raise SimulationError(
                f"node {self.node_id} started a transmission while already sending"
            )
        self._channel.transmit(self, frame, duration)

    def begin_transmit(self, tx: Transmission) -> None:
        self.sending = tx
        self.energy += 1
        # Half duplex: anything we were receiving is lost.
        receptions = self.receptions
        for other in receptions:
            receptions[other] = True
        if self.mac is not None and not self.mac_idle:
            self.mac.on_medium_change()

    def end_transmit(self, tx: Transmission) -> None:
        self.sending = None
        self.energy -= 1
        if self.mac is not None:
            if not self.mac_idle:
                self.mac.on_medium_change()
            self.mac.on_tx_complete(tx.frame)
