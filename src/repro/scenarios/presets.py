"""Scenario presets: the paper's exact setups, and scaled-down versions.

The scaled presets preserve what matters — node density (~30 nodes per
1000 m x 300 m tile vs the paper's 100 per 2200 m x 600 m, i.e. within ~30 %
of the same nodes-per-radio-footprint), average path length of several
hops, per-session rate, packet size and the mobility model — while cutting
node count and run length so a pure-Python data point costs seconds, not
minutes.  EXPERIMENTS.md reports how the shapes track the paper.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import DsrConfig
from repro.errors import ConfigurationError
from repro.scenarios.config import ScenarioConfig

# ---------------------------------------------------------------------------
# Paper-scale presets (section 4.1): 100 nodes, 2200 m x 600 m, 500 s.
# ---------------------------------------------------------------------------


def paper_scenario(
    pause_time: float = 0.0,
    packet_rate: float = 3.0,
    dsr: DsrConfig | None = None,
    seed: int = 1,
) -> ScenarioConfig:
    """The paper's full-scale setup."""
    return ScenarioConfig(
        num_nodes=100,
        field_width=2200.0,
        field_height=600.0,
        duration=500.0,
        num_sessions=25,
        packet_rate=packet_rate,
        pause_time=pause_time,
        dsr=dsr or DsrConfig.base(),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Scaled presets used by the default benchmark harness.
# ---------------------------------------------------------------------------

SCALED_NODES = 30
SCALED_WIDTH = 1000.0
SCALED_HEIGHT = 300.0
SCALED_DURATION = 120.0
SCALED_SESSIONS = 8


def scaled_scenario(
    pause_time: float = 0.0,
    packet_rate: float = 3.0,
    dsr: DsrConfig | None = None,
    seed: int = 1,
    duration: float = SCALED_DURATION,
) -> ScenarioConfig:
    """A laptop-scale analogue of the paper's setup (see module docstring)."""
    return ScenarioConfig(
        num_nodes=SCALED_NODES,
        field_width=SCALED_WIDTH,
        field_height=SCALED_HEIGHT,
        duration=duration,
        num_sessions=SCALED_SESSIONS,
        packet_rate=packet_rate,
        pause_time=pause_time,
        dsr=dsr or DsrConfig.base(),
        seed=seed,
    )


def lossy_scenario(
    link_loss: float = 0.15,
    radio_profile: str = "wavelan",
    dsr: DsrConfig | None = None,
    seed: int = 1,
    pause_time: float | None = None,
) -> ScenarioConfig:
    """A scaled scenario where link breaks are mostly loss-driven.

    The default is pause = duration: a node rests once its first leg ends
    (the waypoint model starts with a leg, so this is not a frozen network),
    and most MAC retry exhaustion is caused by the probabilistic channel —
    the regime where negative caches and adaptive timeouts face the opposite
    input to the paper's mobility sweeps.  Pick a ``radio_profile`` to add that
    technology's own grey zone and capture behaviour on top of the flat
    ``link_loss``.
    """
    config = scaled_scenario(dsr=dsr, seed=seed)
    return config.but(
        pause_time=config.duration if pause_time is None else pause_time,
        radio_profile=radio_profile,
        link_loss=link_loss,
    )


def tiny_scenario(
    dsr: DsrConfig | None = None,
    seed: int = 1,
    pause_time: float = 0.0,
) -> ScenarioConfig:
    """A very small scenario for integration tests and the quickstart."""
    return ScenarioConfig(
        num_nodes=12,
        field_width=600.0,
        field_height=300.0,
        duration=40.0,
        num_sessions=4,
        packet_rate=2.0,
        pause_time=pause_time,
        dsr=dsr or DsrConfig.base(),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# The presets by name: what ``--preset`` and ``repro.paper``'s scales select.
# ---------------------------------------------------------------------------

PRESETS = {"tiny": tiny_scenario, "scaled": scaled_scenario, "paper": paper_scenario}


def preset_scenario(
    preset: str,
    dsr: DsrConfig,
    pause_time: float,
    packet_rate: float,
    seed: int,
    duration: Optional[float] = None,
) -> ScenarioConfig:
    """The named preset at one operating point (``duration=None`` keeps the
    preset's own run length)."""
    if preset not in PRESETS:
        raise ConfigurationError(
            f"unknown preset {preset!r}: expected one of {sorted(PRESETS)}"
        )
    config = PRESETS[preset](dsr=dsr, seed=seed, pause_time=pause_time)
    config = config.but(packet_rate=packet_rate)
    return config if duration is None else config.but(duration=duration)
