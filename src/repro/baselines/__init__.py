"""Baseline / comparison protocols.

The paper (section 6) conjectures its caching techniques transfer to other
on-demand protocols such as AODV, which caches routes indirectly through
intermediate-node replies.  :mod:`repro.baselines.aodv` provides a working
AODV implementation over the same stack so that conjecture can be
exercised (the "AODV vs DSR" table of :func:`repro.paper.supplement`).
"""

from repro.baselines.aodv.agent import AodvAgent
from repro.baselines.aodv.table import RouteEntry, RoutingTable

__all__ = ["AodvAgent", "RoutingTable", "RouteEntry"]
