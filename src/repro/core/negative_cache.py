"""Negative caches: remembering *broken* links.

Per the paper's section 3, every node caches links it recently learned were
broken (via its own link-layer feedback or received route errors).  For the
next ``timeout`` seconds:

* any packet to be forwarded whose source route contains such a link is
  dropped and a route error generated;
* the link is filtered out of any route before it enters the route cache —
  the positive and negative caches stay mutually exclusive, which stops
  in-flight packets from instantly re-polluting a freshly cleaned cache.

Replacement is FIFO with a fixed entry budget, over a plain dict in
insertion order; expiry is lazy (checked on read) plus an explicit purge
hook.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

Link = Tuple[int, int]


class NegativeCache:
    """A FIFO cache of recently broken links."""

    def __init__(self, capacity: int = 64, timeout: float = 10.0):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self.capacity = capacity
        self.timeout = timeout
        self._entries: Dict[Link, float] = {}  # link -> expiry

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, link: Link, now: float) -> None:
        """Quarantine ``link`` until ``now + timeout``."""
        entries = self._entries
        if link in entries:
            del entries[link]  # re-quarantined at the young end
        elif len(entries) >= self.capacity:
            del entries[next(iter(entries))]  # FIFO replacement
        entries[link] = now + self.timeout

    def contains(self, link: Link, now: float) -> bool:
        expiry = self._entries.get(link)
        if expiry is None:
            return False
        if expiry <= now:
            del self._entries[link]
            return False
        return True

    def _first_bad_hop(self, route: Sequence[int], now: float) -> int:
        """Index of the hop at which the earliest quarantined link of
        ``route`` leaves, or -1.  Like :meth:`contains`, expires the stale
        entries it reads."""
        entries = self._entries
        if entries:  # usually empty: nothing has broken lately
            for i in range(len(route) - 1):
                link = (route[i], route[i + 1])
                if link in entries and self.contains(link, now):
                    return i
        return -1

    def first_bad_link(self, route: Sequence[int], now: float) -> Optional[Link]:
        """The earliest quarantined link on ``route``, or None."""
        i = self._first_bad_hop(route, now)
        return None if i < 0 else (route[i], route[i + 1])

    def filter_route(self, route: Sequence[int], now: float) -> Sequence[int]:
        """Truncate ``route`` just before its first quarantined link (the
        route itself, not a copy, when there is none).

        This is the pre-insertion filter keeping route cache and negative
        cache mutually exclusive.
        """
        i = self._first_bad_hop(route, now)
        return route if i < 0 else route[: i + 1]

    def purge(self, now: float) -> int:
        """Drop expired entries eagerly; returns how many were removed."""
        stale = [link for link, expiry in self._entries.items() if expiry <= now]
        for link in stale:
            del self._entries[link]
        return len(stale)
