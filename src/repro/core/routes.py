"""Source-route utilities.

A *route* is a list of node ids, first element the route's owner/origin and
last the destination; every consecutive pair is a (directed) link.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import RoutingError

Link = Tuple[int, int]


def is_valid_route(route: Sequence[int]) -> bool:
    """At least two nodes and none repeated (source routes with loops are
    never valid in DSR)."""
    return len(route) >= 2 and len(set(route)) == len(route)


def route_links(route: Sequence[int]) -> Iterator[Link]:
    """The directed links of a route, in order."""
    return zip(route, route[1:])


def link_position(route: Sequence[int], link: Link) -> int:
    """Index of the hop at which ``link`` first leaves, or -1 if the route
    does not traverse it."""
    a, b = link
    if a not in route:  # one C-level scan rejects most routes
        return -1
    for i in range(len(route) - 1):
        if route[i] == a and route[i + 1] == b:
            return i
    return -1


def concatenate_routes(
    first: Sequence[int], second: Sequence[int]
) -> Optional[List[int]]:
    """Splice two routes sharing a junction node (``first[-1] == second[0]``).

    Used when an intermediate node answers a route request from its cache:
    the accumulated record (origin -> us) is joined with the cached route
    (us -> target).  Returns None if the result would contain a loop — DSR
    must then decline to reply rather than advertise a looping route.
    """
    if not first or not second or first[-1] != second[0]:
        raise RoutingError(
            f"routes do not share a junction: {list(first)} + {list(second)}"
        )
    combined = list(first) + list(second[1:])
    if len(set(combined)) != len(combined):
        return None
    return combined
