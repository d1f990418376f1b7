"""Radio/physical layer: propagation, the shared channel, and transceivers.

The model reproduces what the paper's results actually depend on:

* a nominal receive range of 250 m (Lucent WaveLAN-like) with a larger
  carrier-sense/interference range,
* a shared 2 Mb/s medium where concurrent in-range transmissions collide
  (no capture), and
* half-duplex transceivers that report medium busy/idle transitions to the
  MAC.

Other radio technologies plug in through :mod:`repro.phy.profiles`: a
:class:`RadioProfile` bundles geometry, bitrate/timing, energy draws, a
probabilistic-reception loss shape and an optional capture threshold; the
default ``wavelan`` profile reproduces the paper's radio bit for bit.

Positions come from a :class:`repro.mobility.MobilityModel`; for speed, pairwise
connectivity is cached per small time quantum by :class:`NeighborCache`
(nodes move at most ~1 m within the default 50 ms quantum, far below the
250 m range, so the approximation is negligible).
"""

from repro.phy.propagation import (
    DiskPropagation,
    log_distance_range,
    two_ray_ground_range,
)
from repro.phy.energy import EnergyLedger, EnergyModel
from repro.phy.neighbors import NeighborCache
from repro.phy.channel import Channel, Transmission
from repro.phy.radio import Radio
from repro.phy.profiles import (
    CaptureModel,
    ProbabilisticReception,
    RadioProfile,
    get_profile,
    profile_names,
)

__all__ = [
    "DiskPropagation",
    "two_ray_ground_range",
    "log_distance_range",
    "EnergyModel",
    "EnergyLedger",
    "NeighborCache",
    "Channel",
    "Transmission",
    "Radio",
    "RadioProfile",
    "ProbabilisticReception",
    "CaptureModel",
    "get_profile",
    "profile_names",
]
