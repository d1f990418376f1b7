"""Configuration for the DSR agent and every caching strategy under study.

The class provides named constructors matching the protocol variants in the
paper's evaluation (``base``, ``wider_error``, ``adaptive_expiry``,
``negative_cache``, ``all_techniques``) so benchmark code reads like the
paper's figure legends.

Three numeric parameters were lost to OCR in the available copy of the
paper; our documented defaults (see DESIGN.md) are ``adaptive_alpha = 1.0``,
``adaptive_min_timeout = 1.0`` s and ``negative_cache_size = 64``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from repro.errors import ConfigurationError


class ExpiryMode(str, Enum):
    NONE = "none"
    STATIC = "static"
    ADAPTIVE = "adaptive"


@dataclass(frozen=True)
class DsrConfig:
    """Every tunable of the DSR implementation.

    Groups: base-protocol optimisations (all on by default, matching the
    paper's "base DSR"), the three proposed techniques (all off by
    default), and plumbing constants from the CMU ns-2 model.
    """

    # -- base DSR optimisations (paper section 2) ---------------------------
    reply_from_cache: bool = True
    salvaging: bool = True
    max_salvage_count: int = 3
    gratuitous_repair: bool = True
    promiscuous_listening: bool = True
    route_shortening: bool = True
    nonpropagating_requests: bool = True

    # -- technique 1: wider error notification (paper section 3) ------------
    wider_error: bool = False

    # -- technique 2: timer-based route expiry ------------------------------
    expiry_mode: ExpiryMode = ExpiryMode.NONE
    static_timeout: float = 10.0
    adaptive_alpha: float = 1.0
    adaptive_min_timeout: float = 1.0
    expiry_check_period: float = 0.5  # stated in the paper

    # -- technique 3: negative caches ----------------------------------------
    negative_cache: bool = False
    negative_cache_size: int = 64
    negative_cache_timeout: float = 10.0  # stated in the paper

    # -- extension: relative route freshness (paper section 6 future work) ---
    freshness_tags: bool = False

    # -- extension: process overheard route errors (off = paper's base DSR) --
    snoop_errors: bool = False

    # -- extension: route-reply storm prevention (DSR draft section 3.5.3) ---
    # When many nodes hold cached routes to a target, they all answer one
    # request.  With this on, cache replies are delayed proportionally to
    # their route length and suppressed if a shorter reply is overheard.
    reply_storm_prevention: bool = False
    reply_storm_slot: float = 0.002  # per-hop reply delay quantum (H)

    # -- plumbing ------------------------------------------------------------
    cache_capacity: int = 64  # cached paths per node
    send_buffer_capacity: int = 64  # CMU model
    send_buffer_timeout: float = 30.0  # CMU model
    rreq_ttl: int = 255
    nonprop_timeout: float = 0.03  # DSR draft NonpropRequestTimeout
    broadcast_jitter: float = 0.01  # rebroadcast desynchronisation window
    discovery_backoff_base: float = 0.5
    discovery_backoff_max: float = 10.0
    reply_jitter: float = 0.01  # spread cache replies to dodge reply storms
    grat_reply_holdoff: float = 1.0
    use_link_cache: bool = False  # ablation: link cache instead of path cache

    def __post_init__(self) -> None:
        if self.static_timeout <= 0:
            raise ConfigurationError("static_timeout must be positive")
        if self.adaptive_alpha <= 0:
            raise ConfigurationError("adaptive_alpha must be positive")
        if self.adaptive_min_timeout <= 0:
            raise ConfigurationError("adaptive_min_timeout must be positive")
        if self.expiry_check_period <= 0:
            raise ConfigurationError("expiry_check_period must be positive")
        if self.negative_cache_size <= 0:
            raise ConfigurationError("negative_cache_size must be positive")
        if self.negative_cache_timeout <= 0:
            raise ConfigurationError("negative_cache_timeout must be positive")
        if self.cache_capacity <= 0:
            raise ConfigurationError("cache_capacity must be positive")
        if self.max_salvage_count < 0:
            raise ConfigurationError("max_salvage_count cannot be negative")
        if self.rreq_ttl < 1:
            raise ConfigurationError("rreq_ttl must be >= 1")

    # -- protocol variants from the paper's evaluation -----------------------

    @classmethod
    def base(cls) -> "DsrConfig":
        """Base DSR: all standard optimisations, none of the new techniques."""
        return cls()

    @classmethod
    def with_wider_error(cls) -> "DsrConfig":
        return cls(wider_error=True)

    @classmethod
    def with_static_expiry(cls, timeout: float) -> "DsrConfig":
        return cls(expiry_mode=ExpiryMode.STATIC, static_timeout=timeout)

    @classmethod
    def with_adaptive_expiry(cls) -> "DsrConfig":
        return cls(expiry_mode=ExpiryMode.ADAPTIVE)

    @classmethod
    def with_negative_cache(cls) -> "DsrConfig":
        return cls(negative_cache=True)

    @classmethod
    def with_freshness_tags(cls) -> "DsrConfig":
        """The future-work extension: replies carry generation timestamps."""
        return cls(freshness_tags=True)

    @classmethod
    def all_techniques(cls) -> "DsrConfig":
        """The paper's best variant: all three techniques combined."""
        return cls(
            wider_error=True,
            expiry_mode=ExpiryMode.ADAPTIVE,
            negative_cache=True,
        )

    def but(self, **changes) -> "DsrConfig":
        """A modified copy (keyword arguments override fields)."""
        return replace(self, **changes)


PAPER_VARIANTS = {
    "DSR": DsrConfig.base(),
    "WiderError": DsrConfig.with_wider_error(),
    "AdaptiveExpiry": DsrConfig.with_adaptive_expiry(),
    "NegativeCache": DsrConfig.with_negative_cache(),
    "AllTechniques": DsrConfig.all_techniques(),
}
"""The five protocol variants plotted in the paper's Figs. 2-4."""
