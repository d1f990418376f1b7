"""Propagation models.

The paper's radio is a WaveLAN-like interface with a nominal 250 m range
under the ns-2 two-ray-ground model.  Functionally that model reduces to a
*disk*: reception succeeds within ``rx_range``, and transmissions are sensed
(and interfere) out to a larger ``cs_range`` — ns-2's default carrier-sense
threshold corresponds to roughly 2.2x the receive range.

:func:`two_ray_ground_range` and :func:`log_distance_range` derive that disk
radius from physical radio parameters (transmit power, antenna gains and
heights, receiver sensitivity), so scenarios can be specified in radio terms
instead of a bare range number.  Probabilistic frame loss near the cell edge
is modelled separately by
:class:`~repro.phy.profiles.ProbabilisticReception` (see
:mod:`repro.phy.channel`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError

SPEED_OF_LIGHT = 299_792_458.0


def friis_cross_over_distance(
    frequency_hz: float, tx_height: float = 1.5, rx_height: float = 1.5
) -> float:
    """Distance at which the two-ray model departs from free space.

    Below this distance the two-ray ground model is invalid and Friis free
    space applies (ns-2 uses the same switch).
    """
    wavelength = SPEED_OF_LIGHT / frequency_hz
    return 4.0 * math.pi * tx_height * rx_height / wavelength


def two_ray_ground_range(
    tx_power_w: float = 0.2818,
    rx_threshold_w: float = 3.652e-10,
    tx_gain: float = 1.0,
    rx_gain: float = 1.0,
    tx_height: float = 1.5,
    rx_height: float = 1.5,
    frequency_hz: float = 914e6,
) -> float:
    """Receive range under the ns-2 two-ray ground model.

    Defaults are the classic CMU/ns-2 WaveLAN parameters, which yield the
    famous ~250 m nominal range:

    >>> 249.0 < two_ray_ground_range() < 251.0
    True
    """
    if min(tx_power_w, rx_threshold_w, tx_gain, rx_gain) <= 0:
        raise ConfigurationError("radio parameters must be positive")
    # Pr = Pt * Gt * Gr * ht^2 * hr^2 / d^4  (beyond the cross-over point)
    d4 = tx_power_w * tx_gain * rx_gain * tx_height**2 * rx_height**2 / rx_threshold_w
    distance = d4**0.25
    cross_over = friis_cross_over_distance(frequency_hz, tx_height, rx_height)
    if distance < cross_over:
        # Inside the cross-over: fall back to the Friis solution.
        wavelength = SPEED_OF_LIGHT / frequency_hz
        d2 = (
            tx_power_w
            * tx_gain
            * rx_gain
            * wavelength**2
            / ((4.0 * math.pi) ** 2 * rx_threshold_w)
        )
        distance = math.sqrt(d2)
    return distance


def log_distance_range(
    reference_distance: float = 1.0,
    reference_loss_db: float = 31.67,
    path_loss_exponent: float = 2.8,
    tx_power_dbm: float = 24.5,
    rx_sensitivity_dbm: float = -64.4,
) -> float:
    """Receive range under a log-distance path-loss model.

    ``PL(d) = PL(d0) + 10 n log10(d / d0)``; the range is where the received
    power crosses the sensitivity floor.
    """
    if path_loss_exponent <= 0 or reference_distance <= 0:
        raise ConfigurationError("path-loss parameters must be positive")
    budget_db = tx_power_dbm - rx_sensitivity_dbm - reference_loss_db
    return reference_distance * 10.0 ** (budget_db / (10.0 * path_loss_exponent))


@dataclass(frozen=True)
class DiskPropagation:
    """Unit-disk reception with an extended carrier-sense disk.

    Attributes
    ----------
    rx_range:
        Maximum distance (m) at which a frame can be decoded.
    cs_range:
        Maximum distance (m) at which energy is detected; transmissions
        inside this range but outside ``rx_range`` cannot be decoded but do
        cause carrier sense and corrupt concurrent receptions.
    """

    rx_range: float = 250.0
    cs_range: float = 550.0

    def __post_init__(self) -> None:
        if self.rx_range <= 0:
            raise ConfigurationError("rx_range must be positive")
        if self.cs_range < self.rx_range:
            raise ConfigurationError("cs_range must be >= rx_range")
