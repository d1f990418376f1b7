"""A link cache: the alternative cache organisation (Hu & Johnson,
MobiCom 2000) the paper contrasts with its path cache.

Individual links are stored in a graph; routes are answered by a
shortest-hop search from the owner.  Provided as an ablation so the
benchmark suite can compare cache structures under the same expiry
strategies — the related-work axis the paper discusses in section 5.

The class implements the same surface as :class:`repro.core.cache.PathCache`
so :class:`repro.core.agent.DsrAgent` can use either interchangeably
(``DsrConfig.use_link_cache``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.routes import is_valid_route, route_links

Link = Tuple[int, int]


@dataclass
class _LinkEntry:
    added: float
    last_seen: float


class LinkCache:
    """A graph of individually cached links with BFS route construction."""

    def __init__(self, owner: int, capacity: int = 256):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.owner = owner
        self.capacity = capacity  # maximum number of stored links
        self._links: Dict[Link, _LinkEntry] = {}
        self._adjacency: Dict[int, Set[int]] = {}
        self._links_forwarded: Set[Link] = set()

    def __len__(self) -> int:
        return len(self._links)

    # ------------------------------------------------------------------

    def _insert_link(self, link: Link, now: float) -> None:
        entry = self._links.get(link)
        if entry is not None:
            # Keep the original entry time (lifetime measurement); refresh
            # only the usage recency.
            entry.last_seen = max(entry.last_seen, now)
            return
        if len(self._links) >= self.capacity:
            oldest = min(self._links, key=lambda key: self._links[key].last_seen)
            self._drop_link(oldest)
        self._links[link] = _LinkEntry(added=now, last_seen=now)
        self._adjacency.setdefault(link[0], set()).add(link[1])

    def _drop_link(self, link: Link) -> None:
        if link in self._links:
            del self._links[link]
            neighbors = self._adjacency.get(link[0])
            if neighbors is not None:
                neighbors.discard(link[1])
                if not neighbors:
                    del self._adjacency[link[0]]

    # ------------------------------------------------------------------
    # PathCache-compatible surface
    # ------------------------------------------------------------------

    def add(self, route: Sequence[int], now: float) -> bool:
        if not is_valid_route(route) or route[0] != self.owner:
            return False
        for link in route_links(route):
            self._insert_link(link, now)
        return True

    def find(self, dst: int) -> Optional[List[int]]:
        """Shortest-hop route owner -> dst over the cached link graph."""
        if dst == self.owner:
            return None
        parents: Dict[int, int] = {self.owner: self.owner}
        frontier = deque([self.owner])
        while frontier:
            node = frontier.popleft()
            if node == dst:
                break
            for neighbor in sorted(self._adjacency.get(node, ())):
                if neighbor not in parents:
                    parents[neighbor] = node
                    frontier.append(neighbor)
        if dst not in parents:
            return None
        route = [dst]
        while route[-1] != self.owner:
            route.append(parents[route[-1]])
        route.reverse()
        return route

    def has_route_to(self, dst: int) -> bool:
        return self.find(dst) is not None

    def find_with_age(self, dst: int):
        """Route plus the entry time of its *oldest* constituent link (the
        honest generation time for a composed route)."""
        route = self.find(dst)
        if route is None:
            return None
        from repro.core.routes import route_links

        ages = [
            self._links[link].added
            for link in route_links(route)
            if link in self._links
        ]
        return route, (min(ages) if ages else 0.0)

    def note_links_seen(self, route: Sequence[int], now: float) -> None:
        for link in route_links(route):
            entry = self._links.get(link)
            if entry is not None:
                entry.last_seen = now

    def note_links_forwarded(self, route: Sequence[int]) -> None:
        self._links_forwarded.update(route_links(route))

    def link_forwarded(self, link: Link) -> bool:
        return link in self._links_forwarded

    def contains_link(self, link: Link) -> bool:
        return link in self._links

    def remove_link(self, link: Link, now: float) -> List[float]:
        entry = self._links.get(link)
        if entry is None:
            return []
        lifetime = max(0.0, now - entry.added)
        self._drop_link(link)
        return [lifetime]

    def prune_stale(self, now: float, timeout: float) -> int:
        stale = [
            link
            for link, entry in self._links.items()
            if now - max(entry.last_seen, entry.added) > timeout
        ]
        for link in stale:
            self._drop_link(link)
        return len(stale)

    def clear(self) -> None:
        self._links.clear()
        self._adjacency.clear()
