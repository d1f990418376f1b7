"""The DSR path cache.

A *path cache* stores complete source routes, each starting at the caching
node — the cache organisation used by the CMU ns-2 DSR model and by the
paper (contrast with the link cache of Hu & Johnson, implemented as an
ablation in :mod:`repro.core.link_cache`).

Cache-correctness support, per the paper's section 3:

* every path remembers when it was **entered** (``added``) — the adaptive
  timeout needs the lifetime of a route when it breaks;
* the cache tracks, per link of a cached path, when it was **last seen in
  a unicast packet forwarded by this node** — the timer-based expiry prunes
  the portion of any cached route unused for longer than the timeout;
* it also remembers which links this node ever forwarded over, the gating
  condition for rebroadcasting wider error notifications.

The agent writes each of the two link tables only when its reader is
configured (expiry on, wider error on), so a base-DSR node holds neither.

The store is one plain dict, route -> entry time, in eviction order (least
recently sighted first).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.routes import is_valid_route, link_position, route_links

Link = Tuple[int, int]


@dataclass
class CachedPath:
    """One stored source route and its entry time, as :meth:`PathCache.paths`
    reports it."""

    route: Tuple[int, ...]
    added: float  # when this path (or its untruncated ancestor) was cached


class PathCache:
    """A capacity-bounded cache of source routes for one node.

    Replacement is least-recently-*sighted*: re-adding a cached path moves it
    to the young end, so a full cache evicts the path that has gone longest
    without being learned again, not the one that entered first.
    """

    def __init__(self, owner: int, capacity: int = 64):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.owner = owner
        self.capacity = capacity
        # route -> when it (or its untruncated ancestor) entered the cache
        self._paths: Dict[Tuple[int, ...], float] = {}
        self._link_last_seen: Dict[Link, float] = {}
        self._links_forwarded: Set[Link] = set()

    # ------------------------------------------------------------------
    # Insertion / lookup
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._paths)

    def paths(self) -> List[CachedPath]:
        return [CachedPath(route, added) for route, added in self._paths.items()]

    def add(self, route: Sequence[int], now: float) -> bool:
        """Cache ``route`` (must start at the owner).  Returns True if a new
        path was stored.

        Invalid routes (loops, too short, wrong start) are rejected rather
        than raising: snooped packets routinely yield degenerate routes and
        the protocol simply ignores them.
        """
        paths = self._paths
        key = tuple(route)
        added = paths.pop(key, None)
        if added is not None:
            # A re-sighting, as most adds are, of a key that is valid and
            # starts at the owner by construction.  It moves to the young end
            # of the eviction order but keeps its original entry time:
            # "lifetime" in the adaptive timeout is time since the route
            # *entered* the cache, and refreshing it on every forwarded
            # packet would collapse lifetimes to inter-packet gaps.  (Usage
            # recency is tracked separately via note_links_seen.)
            paths[key] = added
            return False
        if not is_valid_route(key) or key[0] != self.owner:
            return False
        if len(paths) >= self.capacity:
            del paths[next(iter(paths))]  # evict the least recently sighted
        paths[key] = now
        return True

    def find(self, dst: int) -> Optional[List[int]]:
        """Shortest cached route from the owner to ``dst``.

        A path *containing* ``dst`` counts (truncated at ``dst``) — a route
        through a node is also a route to it.
        """
        found = self.find_with_age(dst)
        return None if found is None else found[0]

    def find_with_age(self, dst: int) -> Optional[Tuple[List[int], float]]:
        """Like :meth:`find` but also returns when the winning path entered
        the cache — the "generation time" freshness tags propagate."""
        # Shortest wins, then youngest, then first cached.  Most lookups
        # scan a full cache and most paths do not hold ``dst``.
        paths = self._paths
        best: Optional[Tuple[int, ...]] = None
        best_hops = 0
        best_added = 0.0
        for route, added in paths.items():
            if dst not in route:
                continue
            hops = route.index(dst)
            if hops == 0:
                continue
            if best is None or hops < best_hops or (hops == best_hops and added > best_added):
                best, best_hops, best_added = route, hops, added
        if best is None:
            return None
        return list(best[: best_hops + 1]), best_added

    def has_route_to(self, dst: int) -> bool:
        return self.find(dst) is not None

    # ------------------------------------------------------------------
    # Link bookkeeping (expiry + wider-error gating)
    # ------------------------------------------------------------------

    def note_links_seen(self, route: Sequence[int], now: float) -> None:
        """Record that this node forwarded a unicast packet along ``route``
        at ``now``: the last-seen times the expiry sweep reads."""
        last_seen = self._link_last_seen
        for link in route_links(route):
            last_seen[link] = now

    def note_links_forwarded(self, route: Sequence[int]) -> None:
        """Record that this node forwarded over every link of ``route``:
        the set wider-error rebroadcasts are gated on."""
        self._links_forwarded.update(route_links(route))

    def link_forwarded(self, link: Link) -> bool:
        """Did this node ever forward a packet over ``link``?"""
        return link in self._links_forwarded

    def contains_link(self, link: Link) -> bool:
        for route in self._paths:
            if link_position(route, link) >= 0:
                return True
        return False

    # ------------------------------------------------------------------
    # Invalidations
    # ------------------------------------------------------------------

    def remove_link(self, link: Link, now: float) -> List[float]:
        """Truncate every cached path at ``link``.

        Returns the lifetimes (``now - added``) of the affected paths — the
        input the adaptive timeout heuristic needs.
        """
        paths = self._paths
        lifetimes: List[float] = []
        replacements: List[Tuple[Tuple[int, ...], float]] = []
        doomed: List[Tuple[int, ...]] = []
        tail = link[0]
        for key, added in paths.items():
            if tail not in key:  # most paths: skip without a call
                continue
            position = link_position(key, link)
            if position < 0:
                continue
            lifetimes.append(max(0.0, now - added))
            doomed.append(key)
            if position >= 1:
                replacements.append((key[: position + 1], added))
        for key in doomed:
            del paths[key]
        for prefix, added in replacements:
            if prefix not in paths:
                paths[prefix] = added
        return lifetimes

    def prune_stale(self, now: float, timeout: float) -> int:
        """Apply timer-based expiry: truncate each path at its first link
        not seen within ``timeout`` seconds (entry time counts as a
        sighting).  Returns the number of paths shortened or dropped.

        Last-seen times survive only for links of the paths kept.  A link in
        no cached path re-enters only through :meth:`add`, which stamps it
        ``added = now``, later than any time dropped here, and the sweep
        reads ``max(last_seen, added)``: a dropped time is never read."""
        changed = 0
        new_paths: Dict[Tuple[int, ...], float] = {}
        last_seen = self._link_last_seen
        kept_seen: Dict[Link, float] = {}
        for route, added in self._paths.items():
            cut = len(route)
            for i, link in enumerate(route_links(route)):
                seen = last_seen.get(link)
                if now - (added if seen is None or seen < added else seen) > timeout:
                    cut = i + 1
                    break
                if seen is not None:
                    kept_seen[link] = seen
            if cut == len(route):
                new_paths[route] = added
                continue
            changed += 1
            if cut >= 2:
                prefix = route[:cut]
                if prefix not in new_paths:
                    new_paths[prefix] = added
        self._paths = new_paths
        self._link_last_seen = kept_seen
        return changed
