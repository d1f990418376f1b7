"""The scenario parameter record.

Defaults correspond to the paper's simulation environment (section 4.1):
100 nodes in 2200 m x 600 m, random waypoint at up to 20 m/s, 25 CBR
sessions of 512-byte packets, 500 simulated seconds, WaveLAN-like radio.
Benchmarks usually run scaled-down copies (see
:mod:`repro.scenarios.presets`) because a pure-Python 100-node 500-second
run takes minutes per data point.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.config import DsrConfig
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one simulation run."""

    # Topology & mobility (paper defaults)
    num_nodes: int = 100
    field_width: float = 2200.0
    field_height: float = 600.0
    max_speed: float = 20.0
    min_speed: float = 0.1
    pause_time: float = 0.0
    duration: float = 500.0
    # "waypoint" | "gauss_markov" | "rpgm" | "random_walk"
    mobility_model: str = "waypoint"
    rpgm_groups: int = 4
    walk_epoch: float = 10.0  # random_walk: seconds between heading redraws

    # Traffic
    num_sessions: int = 25
    packet_rate: float = 3.0  # packets per second per session (CBR only)
    payload_bytes: int = 512
    start_window: float = 10.0
    traffic_type: str = "cbr"  # "cbr" (the paper) or "tcp" (related work)

    # Radio / MAC
    # Radio technology profile (see repro.phy.profiles): geometry, bitrate,
    # MAC timing, energy draws, loss shape and capture in one named bundle.
    # "wavelan" is the paper's radio and keeps honouring the legacy
    # rx_range/cs_range scalars below; other profiles are authoritative.
    radio_profile: str = "wavelan"
    rx_range: float = 250.0
    cs_range: float = 550.0
    grey_zone_fraction: float = 0.0  # 0 = pure disk; 0.2 = lossy outer 20 %
    link_loss: float = 0.0  # distance-independent frame-loss probability
    neighbor_quantum: float = 0.05
    # Spatial index behind the neighbour cache: "auto" picks the uniform-grid
    # cell list at >= repro.phy.spatial.GRID_AUTO_NODES nodes, the all-pairs
    # matrix below it.  Backends are metrics-bit-identical; the knob exists
    # for benchmarking and for forcing either path at any scale.
    neighbor_index: str = "auto"  # "auto" | "allpairs" | "grid"
    ifq_capacity: int = 50
    track_energy: bool = False  # per-node radio energy accounting
    track_reachability: bool = False  # classify sends by topological reachability
    use_eifs: bool = False  # 802.11 extended IFS after corrupted frames

    # Protocol
    protocol: str = "dsr"  # "dsr" or "aodv"
    dsr: DsrConfig = field(default_factory=DsrConfig)

    # Reproducibility
    seed: int = 1

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise ConfigurationError("need at least two nodes")
        if self.duration <= 0:
            raise ConfigurationError("duration must be positive")
        if self.num_sessions < 0:
            raise ConfigurationError("num_sessions cannot be negative")
        if self.num_sessions > self.num_nodes:
            raise ConfigurationError("more sessions than nodes")
        if self.packet_rate <= 0:
            raise ConfigurationError("packet_rate must be positive")
        if self.protocol not in ("dsr", "aodv"):
            raise ConfigurationError(f"unknown protocol {self.protocol!r}")
        if not 0.0 <= self.grey_zone_fraction < 1.0:
            raise ConfigurationError("grey_zone_fraction must be in [0, 1)")
        if not 0.0 <= self.link_loss < 1.0:
            raise ConfigurationError("link_loss must be in [0, 1)")
        from repro.phy.profiles import profile_names

        if self.radio_profile not in profile_names():
            raise ConfigurationError(
                f"unknown radio profile {self.radio_profile!r} "
                f"(choose from {profile_names()})"
            )
        if self.neighbor_index not in ("auto", "allpairs", "grid"):
            raise ConfigurationError(
                f"unknown neighbor_index {self.neighbor_index!r} "
                "(choose auto, allpairs or grid)"
            )
        if self.mobility_model not in (
            "waypoint",
            "gauss_markov",
            "rpgm",
            "random_walk",
        ):
            raise ConfigurationError(
                f"unknown mobility model {self.mobility_model!r}"
            )
        if self.rpgm_groups < 1:
            raise ConfigurationError("rpgm_groups must be positive")
        if self.walk_epoch <= 0:
            raise ConfigurationError("walk_epoch must be positive")
        if self.traffic_type not in ("cbr", "tcp"):
            raise ConfigurationError(f"unknown traffic type {self.traffic_type!r}")
        # What the layers this config names would refuse mid-run is refused
        # here.  A speed, pause or range field that the named mobility model
        # or radio profile ignores is not checked.
        if self.field_width <= 0 or self.field_height <= 0:
            raise ConfigurationError("field dimensions must be positive")
        model = self.mobility_model
        if model in ("waypoint", "random_walk", "rpgm"):
            # rpgm's group centres move by random waypoint at its default
            # 0.1 m/s minimum speed.
            low = 0.1 if model == "rpgm" else self.min_speed
            if not 0 < low <= self.max_speed:
                raise ConfigurationError(
                    f"need 0 < min_speed <= max_speed, got {low}, {self.max_speed}"
                )
        elif self.max_speed <= 0:  # gauss_markov: mean speed max_speed / 2
            raise ConfigurationError("max_speed must be positive")
        if model in ("waypoint", "rpgm") and self.pause_time < 0:
            raise ConfigurationError("pause_time cannot be negative")
        if model == "rpgm" and self.rpgm_groups > self.num_nodes:
            raise ConfigurationError("more rpgm groups than nodes")
        if self.radio_profile == "wavelan":  # other profiles fix their ranges
            if self.rx_range <= 0:
                raise ConfigurationError("rx_range must be positive")
            if self.cs_range < self.rx_range:
                raise ConfigurationError("cs_range must be >= rx_range")
        if self.neighbor_quantum <= 0:
            raise ConfigurationError("neighbor_quantum must be positive")
        if self.ifq_capacity <= 0:
            raise ConfigurationError("ifq_capacity must be positive")
        if self.payload_bytes <= 0:
            raise ConfigurationError("payload_bytes must be positive")
        if self.start_window < 0:
            raise ConfigurationError("start_window cannot be negative")

    @property
    def offered_load_kbps(self) -> float:
        """Aggregate application-layer offered load in kb/s."""
        return self.num_sessions * self.packet_rate * self.payload_bytes * 8 / 1000.0

    def but(self, **changes) -> "ScenarioConfig":
        """A modified copy (keyword arguments override fields)."""
        return replace(self, **changes)
