"""Timer-based route expiry policies.

The paper's second technique prunes cached routes that have gone unused for
a timeout period ``T``.  Three policies:

* :class:`NoExpiry` — base DSR (stale entries live forever unless an error
  removes them);
* :class:`StaticTimeout` — a fixed ``T`` (the paper sweeps 1..50 s and finds
  ~10 s optimal for its network);
* :class:`AdaptiveTimeout` — the paper's per-node heuristic:

  .. math:: T = \\max(\\alpha \\cdot \\text{avg route lifetime},\\;
                      \\text{time since last link break})

  clamped below by a minimum.  Route lifetimes are measured when a cached
  route breaks (time since it entered the cache); the second term keeps
  ``T`` from collapsing during quiet periods in bursty break patterns.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import DsrConfig, ExpiryMode


class TimeoutPolicy:
    """Interface shared by all expiry policies."""

    def on_route_break(self, lifetime: float, now: float) -> None:
        """A cached route containing a broken link was invalidated;
        ``lifetime`` is seconds since it entered the cache."""

    def on_link_break(self, now: float) -> None:
        """The node learned of *some* link break (feedback or route error)."""

    def timeout(self, now: float) -> Optional[float]:
        """Current timeout in seconds, or None meaning "do not expire"."""
        raise NotImplementedError


class NoExpiry(TimeoutPolicy):
    """Base DSR: no timer-based expiry at all."""

    def timeout(self, now: float) -> Optional[float]:
        return None


class StaticTimeout(TimeoutPolicy):
    """A fixed, network-wide timeout value."""

    def __init__(self, value: float):
        if value <= 0:
            raise ValueError("timeout must be positive")
        self.value = value

    def timeout(self, now: float) -> Optional[float]:
        return self.value


class AdaptiveTimeout(TimeoutPolicy):
    """The paper's adaptive per-node timeout selection heuristic."""

    def __init__(self, alpha: float, min_timeout: float):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if min_timeout <= 0:
            raise ValueError("min_timeout must be positive")
        self.alpha = alpha
        self.min_timeout = min_timeout
        self._lifetime_sum = 0.0
        self._lifetime_count = 0
        self._last_break: Optional[float] = None

    @property
    def average_lifetime(self) -> Optional[float]:
        if self._lifetime_count == 0:
            return None
        return self._lifetime_sum / self._lifetime_count

    @property
    def breaks_observed(self) -> int:
        return self._lifetime_count

    def on_route_break(self, lifetime: float, now: float) -> None:
        self._lifetime_sum += max(0.0, lifetime)
        self._lifetime_count += 1

    def on_link_break(self, now: float) -> None:
        self._last_break = now

    def timeout(self, now: float) -> Optional[float]:
        """``max(alpha * avg lifetime, time since last break)``, clamped.

        Until the node has observed any break there is no basis for a
        timeout, so no expiry happens — matching a freshly booted node that
        has seen only stable routes.
        """
        average = self.average_lifetime
        if average is None:
            return None
        candidate = self.alpha * average
        if self._last_break is not None:
            candidate = max(candidate, now - self._last_break)
        return max(candidate, self.min_timeout)


def make_timeout_policy(config: DsrConfig) -> TimeoutPolicy:
    """Build the policy selected by a :class:`~repro.core.config.DsrConfig`."""
    if config.expiry_mode is ExpiryMode.NONE:
        return NoExpiry()
    if config.expiry_mode is ExpiryMode.STATIC:
        return StaticTimeout(config.static_timeout)
    if config.expiry_mode is ExpiryMode.ADAPTIVE:
        return AdaptiveTimeout(
            alpha=config.adaptive_alpha,
            min_timeout=config.adaptive_min_timeout,
        )
    raise ValueError(f"unknown expiry mode: {config.expiry_mode!r}")
