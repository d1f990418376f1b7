"""Dynamic Source Routing (DSR) and the paper's caching strategies.

This package is the reproduction target: base DSR with its standard
optimisations (replying from caches, salvaging, gratuitous route repair,
promiscuous listening, non-propagating route requests) plus the three
techniques Marina & Das propose for cache correctness:

* **wider error notification** (:mod:`repro.core.wider_error`) — route
  errors become gated MAC broadcasts that spread through every node that
  forwarded along the broken route;
* **timer-based route expiry** (:mod:`repro.core.expiry`) — static or
  adaptive timeouts prune unused cached links;
* **negative caches** (:mod:`repro.core.negative_cache`) — recently broken
  links are quarantined so in-flight stale routes cannot re-pollute caches.

Everything is toggled through :class:`DsrConfig`.
"""

from repro.core.config import DsrConfig
from repro.core.routes import concatenate_routes, route_links
from repro.core.messages import RouteError, RouteReply, RouteRequest
from repro.core.cache import CachedPath, PathCache
from repro.core.link_cache import LinkCache
from repro.core.negative_cache import NegativeCache
from repro.core.expiry import (
    AdaptiveTimeout,
    NoExpiry,
    StaticTimeout,
    TimeoutPolicy,
    make_timeout_policy,
)
from repro.core.freshness import LinkBreakHistory
from repro.core.request_table import RequestTable
from repro.core.agent import DsrAgent

__all__ = [
    "DsrConfig",
    "DsrAgent",
    "PathCache",
    "CachedPath",
    "LinkCache",
    "NegativeCache",
    "TimeoutPolicy",
    "NoExpiry",
    "StaticTimeout",
    "AdaptiveTimeout",
    "make_timeout_policy",
    "LinkBreakHistory",
    "RequestTable",
    "RouteRequest",
    "RouteReply",
    "RouteError",
    "route_links",
    "concatenate_routes",
]
