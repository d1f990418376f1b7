"""Source-route utilities.

A *route* is a list of node ids, first element the route's owner/origin and
last the destination; every consecutive pair is a (directed) link.  All DSR
logic funnels route surgery through these helpers so the no-loop invariant
is enforced in exactly one place.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import RoutingError

Link = Tuple[int, int]


def validate_route(route: Sequence[int]) -> None:
    """Raise :class:`RoutingError` unless ``route`` is usable.

    Usable means at least two hops and no repeated node (source routes with
    loops are never valid in DSR).
    """
    if len(route) < 2:
        raise RoutingError(f"route too short: {list(route)}")
    if len(set(route)) != len(route):
        raise RoutingError(f"route contains a loop: {list(route)}")


def is_valid_route(route: Sequence[int]) -> bool:
    """Non-raising form of :func:`validate_route`."""
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


def contains_link(route: Sequence[int], link: Link) -> bool:
    return link_position(route, link) >= 0


def truncate_at_link(route: Sequence[int], link: Link) -> Optional[List[int]]:
    """Cut ``route`` just before ``link``.

    Returns the surviving prefix if it is still a usable route (>= 2 hops),
    or None if the link was the first hop / the prefix degenerates.  Returns
    the route unchanged (as a list) if the link does not appear.
    """
    position = link_position(route, link)
    if position < 0:
        return list(route)
    return list(route[: position + 1]) if position >= 1 else None


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
