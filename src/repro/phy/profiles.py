"""Pluggable radio-technology profiles.

The paper evaluates route caching on exactly one radio: a WaveLAN-like
2 Mb/s interface with a 250 m disk range, where every link break is caused
by *mobility*.  Real deployments run the same protocols over very different
physical layers, such as short-range high-loss urban links, where link
breaks are predominantly *loss*-driven, and negative caches / adaptive
timeouts face a very different input.

A :class:`RadioProfile` bundles everything the simulator derives from the
radio technology:

* geometry — receive and carrier-sense ranges (the propagation disk, and
  therefore the spatial index's grid pitch);
* timing — bitrate, slot, SIFS and PLCP durations (:class:`~repro.mac.timing.
  MacTiming` derives every frame airtime from these instead of hard-coding
  WaveLAN's 2 Mb/s);
* energy — per-state power draws for the :class:`~repro.phy.energy.
  EnergyLedger`;
* reception — a distance-dependent delivery-probability shape
  (:class:`ProbabilisticReception`) and an optional capture threshold
  (:class:`CaptureModel`): with capture, a frame survives a collision when
  its received power beats the strongest interferer by the threshold;
  without one, any overlap corrupts.

Profiles are looked up by name (``ScenarioConfig.radio_profile``); the
``wavelan`` profile is the **back-compat contract**: resolving it yields
exactly the objects the builder constructed before profiles existed, so
every pre-profile golden metric — and every pre-profile cache key, thanks
to the canonical-JSON default elision in :mod:`repro.scenarios.io` — stays
valid bit for bit.

Determinism: probabilistic reception draws exclusively from the explicitly
seeded ``fading`` stream the builder wires into the channel; the
capture decision is a pure function of geometry and needs no randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.scenarios.config import ScenarioConfig


@dataclass(frozen=True)
class RadioProfile:
    """One radio technology, as the simulator sees it.

    Attributes
    ----------
    name:
        Registry key (``ScenarioConfig.radio_profile`` value).
    rx_range, cs_range:
        Receive / carrier-sense disk radii in metres.  The spatial index
        derives its grid pitch from ``cs_range``.
    bitrate:
        Payload bit rate in b/s; every frame airtime scales with it.
    slot, sifs, plcp:
        MAC/PHY timing primitives in seconds (DIFS, EIFS and all timeouts
        are derived from these by :class:`~repro.mac.timing.MacTiming`).
    tx_power_w, rx_power_w, idle_power_w:
        Power draws for the energy ledger, in watts.
    reliable_fraction:
        Fraction of ``rx_range`` with distance-certain delivery; the
        remainder is a grey zone where delivery probability decays linearly
        to ``edge_delivery_probability`` at the cell edge.  ``1.0`` means
        the pure disk model.
    edge_delivery_probability:
        Delivery probability exactly at ``rx_range``.
    capture_threshold_db:
        Power margin (dB) by which a frame must beat the strongest
        overlapping transmission to survive the collision; ``None``
        disables capture: any overlap corrupts.  ns-2 captures at 10 dB
        (``CPThresh_``), so this is *more* conservative than the paper's
        radio; ROADMAP item 1 owns the fix.
    path_loss_exponent:
        Exponent of the log-distance power proxy the capture comparison
        uses (only power *differences* matter, so no reference loss or
        transmit power enters the comparison).
    """

    name: str
    rx_range: float
    cs_range: float
    bitrate: float
    slot: float = 20e-6
    sifs: float = 10e-6
    plcp: float = 192e-6
    tx_power_w: float = 1.4
    rx_power_w: float = 1.0
    idle_power_w: float = 0.83
    reliable_fraction: float = 1.0
    edge_delivery_probability: float = 0.0
    capture_threshold_db: Optional[float] = None
    path_loss_exponent: float = 2.8

    def __post_init__(self) -> None:
        if self.rx_range <= 0:
            raise ConfigurationError("rx_range must be positive")
        if self.cs_range < self.rx_range:
            raise ConfigurationError("cs_range must be >= rx_range")
        if self.bitrate <= 0:
            raise ConfigurationError("bitrate must be positive")
        if min(self.slot, self.sifs, self.plcp) <= 0:
            raise ConfigurationError("timing durations must be positive")
        if min(self.tx_power_w, self.rx_power_w, self.idle_power_w) < 0:
            raise ConfigurationError("power draws cannot be negative")
        if not 0.0 <= self.reliable_fraction <= 1.0:
            raise ConfigurationError("reliable_fraction must be in [0, 1]")
        if not 0.0 <= self.edge_delivery_probability <= 1.0:
            raise ConfigurationError("edge_delivery_probability must be in [0, 1]")
        if self.capture_threshold_db is not None and self.capture_threshold_db < 0:
            raise ConfigurationError("capture_threshold_db cannot be negative")
        if self.path_loss_exponent <= 0:
            raise ConfigurationError("path_loss_exponent must be positive")

    def capture(self) -> Optional["CaptureModel"]:
        """The profile's capture comparator, or ``None`` (no capture)."""
        if self.capture_threshold_db is None:
            return None
        return CaptureModel(
            threshold_db=self.capture_threshold_db,
            path_loss_exponent=self.path_loss_exponent,
        )


#: The paper's radio, field for field: the classic CMU/ns-2 WaveLAN disk at
#: 2 Mb/s with 802.11 DSSS timing and the Feeney & Nilsson power draws.
#: Resolving this profile must reproduce the pre-profile builder exactly.
WAVELAN = RadioProfile(
    name="wavelan",
    rx_range=250.0,
    cs_range=550.0,
    bitrate=2e6,
)

#: Short-range, high-loss: an 11 Mb/s 2.4 GHz link in a cluttered urban
#: canyon.  Half the cell is grey zone, fades bite hard near the edge, and
#: a 10 dB capture margin lets the near transmitter win collisions.
URBAN = RadioProfile(
    name="urban",
    rx_range=120.0,
    cs_range=264.0,
    bitrate=11e6,
    tx_power_w=1.65,
    rx_power_w=1.4,
    idle_power_w=1.15,
    reliable_fraction=0.5,
    edge_delivery_probability=0.05,
    capture_threshold_db=10.0,
    path_loss_exponent=3.2,
)

PROFILES: Dict[str, RadioProfile] = {
    profile.name: profile for profile in (WAVELAN, URBAN)
}


def profile_names() -> Tuple[str, ...]:
    """Registered profile names, stable order (``wavelan`` first)."""
    return tuple(PROFILES)


def get_profile(name: str) -> RadioProfile:
    if name not in PROFILES:
        raise ConfigurationError(
            f"unknown radio profile {name!r} (choose from {profile_names()})"
        )
    return PROFILES[name]


def resolve_profile(config: "ScenarioConfig") -> RadioProfile:
    """The effective profile for a scenario.

    The default ``wavelan`` profile keeps honouring the legacy scalar
    ``rx_range``/``cs_range`` scenario knobs (they predate profiles, and
    existing scenarios and tests vary them freely).  Named non-default
    profiles are authoritative: their geometry, timing, loss shape and
    energy model describe one concrete technology.
    """
    profile = get_profile(config.radio_profile)
    if config.radio_profile == WAVELAN.name:
        return replace(profile, rx_range=config.rx_range, cs_range=config.cs_range)
    return profile


@dataclass(frozen=True)
class ProbabilisticReception:
    """Distance-dependent delivery probability with a flat loss floor.

    The distance shape is a grey-zone ramp — certain delivery inside
    ``reliable_fraction * rx_range``, linear decay to
    ``edge_delivery_probability`` at the cell edge — scaled by
    ``base_delivery``, a distance-*independent* factor
    (``1 - ScenarioConfig.link_loss``) that models interference and fading
    uncorrelated with geometry.  ``base_delivery < 1`` makes *every* link
    lossy, so MAC retry exhaustion — and the route-error churn the paper's
    caching strategies must absorb — happens even on short, stable links:
    loss-driven link breaks rather than mobility-driven ones.

    One uniform draw per in-range listener, from the channel's explicitly
    seeded fading stream, in carrier-sense neighbour order; a listener
    whose probability is 1 costs no draw, so a pure grey zone
    (``base_delivery=1``) draws only for listeners inside the ramp.
    """

    rx_range: float
    reliable_fraction: float = 1.0
    edge_delivery_probability: float = 0.0
    base_delivery: float = 1.0

    def __post_init__(self) -> None:
        if self.rx_range <= 0:
            raise ConfigurationError("rx_range must be positive")
        if not 0.0 <= self.reliable_fraction <= 1.0:
            raise ConfigurationError("reliable_fraction must be in [0, 1]")
        if not 0.0 <= self.edge_delivery_probability <= 1.0:
            raise ConfigurationError("edge_delivery_probability must be in [0, 1]")
        if not 0.0 < self.base_delivery <= 1.0:
            raise ConfigurationError("base_delivery must be in (0, 1]")

    def delivery_probability(self, distance: float) -> float:
        reliable = self.reliable_fraction * self.rx_range
        if distance <= reliable:
            return self.base_delivery
        if distance >= self.rx_range:
            return self.base_delivery * self.edge_delivery_probability
        span = self.rx_range - reliable
        fraction = (distance - reliable) / span
        ramp = 1.0 - fraction * (1.0 - self.edge_delivery_probability)
        return self.base_delivery * ramp

    def delivery_probabilities(self, distances: np.ndarray) -> np.ndarray:
        """:meth:`delivery_probability` of every element, bit for bit (same
        operations, same order; the reliable clamp last, as the scalar tests
        it first)."""
        base, reliable = self.base_delivery, self.reliable_fraction * self.rx_range
        span = self.rx_range - reliable
        if span > 0.0:
            fraction = (distances - reliable) / span
            probabilities = base * (1.0 - fraction * (1.0 - self.edge_delivery_probability))
        else:  # no ramp: the clamps below set every element
            probabilities = np.empty_like(distances)
        probabilities[distances >= self.rx_range] = base * self.edge_delivery_probability
        probabilities[distances <= reliable] = base
        return probabilities


@dataclass(frozen=True)
class CaptureModel:
    """Decides whether a frame survives overlapping energy.

    Received power is proxied by log-distance path loss; since only power
    *differences* enter the comparison, transmit power and reference loss
    cancel and ``power_db`` is simply ``-10 n log10(d)`` (clamped below one
    metre, where the far-field model stops meaning anything).  A reception
    at power ``p`` survives an interferer at power ``q`` iff
    ``p >= q + threshold_db`` — the standard pairwise (strongest-interferer)
    capture approximation used by LoRa simulators.
    """

    threshold_db: float
    path_loss_exponent: float = 2.8

    def power_db(self, distance: float) -> float:
        """Relative received power (dB) of a transmission ``distance`` away."""
        return -10.0 * self.path_loss_exponent * math.log10(max(distance, 1.0))

    def survives(self, power_db: float, interferer_db: float) -> bool:
        """True when a frame at ``power_db`` captures over one interferer."""
        return power_db >= interferer_db + self.threshold_db


def build_loss_model(
    profile: RadioProfile, config: "ScenarioConfig"
) -> Optional[ProbabilisticReception]:
    """The channel's loss model for ``profile`` under ``config``.

    Composition rules:

    * the scenario's ``grey_zone_fraction`` (legacy knob) overrides the
      profile's own grey zone when set;
    * ``link_loss`` scales everything by ``1 - link_loss``;
    * ``None`` means no loss at all: the channel's plans carry no draws.
    """
    if config.grey_zone_fraction > 0.0:
        reliable = 1.0 - config.grey_zone_fraction
        edge_probability = 0.0
    else:
        reliable = profile.reliable_fraction
        edge_probability = profile.edge_delivery_probability
    base = 1.0 - config.link_loss
    if base >= 1.0 and reliable >= 1.0:
        return None
    return ProbabilisticReception(
        rx_range=profile.rx_range,
        reliable_fraction=reliable,
        edge_delivery_probability=edge_probability,
        base_delivery=base,
    )
