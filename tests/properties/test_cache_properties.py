"""Property-based tests for cache invariants.

These drive the caches with arbitrary operation sequences and assert the
structural invariants DSR correctness rests on: cached paths are loop-free,
start at the owner, never exceed capacity, and the negative cache keeps the
positive cache free of quarantined links.
"""

import itertools
from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import CachedPath, Link, PathCache
from repro.core.link_cache import LinkCache
from repro.core.negative_cache import NegativeCache
from repro.core.request_table import SeenTable
from repro.core.routes import is_valid_route, link_position, route_links

OWNER = 0

# Routes starting at the owner over a small id universe (dupes allowed so
# some candidate routes are invalid and must be rejected).
route_strategy = st.lists(
    st.integers(min_value=1, max_value=8), min_size=1, max_size=6
).map(lambda tail: [OWNER] + tail)

link_strategy = st.tuples(
    st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8)
)


class _Op:
    pass


ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("add"), route_strategy),
        st.tuples(st.just("remove"), link_strategy),
        st.tuples(st.just("prune"), st.floats(min_value=0.1, max_value=20.0)),
        st.tuples(st.just("use"), route_strategy),
    ),
    max_size=40,
)


def _check_path_cache_invariants(cache: PathCache):
    assert len(cache) <= cache.capacity
    for cached in cache.paths():
        assert cached.route[0] == OWNER
        assert is_valid_route(cached.route)


@given(ops=ops_strategy)
@settings(max_examples=60, deadline=None)
def test_path_cache_invariants_under_arbitrary_ops(ops):
    cache = PathCache(OWNER, capacity=8)
    now = 0.0
    for op, arg in ops:
        now += 1.0
        if op == "add":
            cache.add(arg, now)
        elif op == "remove":
            cache.remove_link(arg, now)
        elif op == "prune":
            cache.prune_stale(now, arg)
        elif op == "use":
            cache.note_links_used(arg, now, forwarded=True)
        _check_path_cache_invariants(cache)


@given(ops=ops_strategy)
@settings(max_examples=60, deadline=None)
def test_removed_link_never_remains_cached(ops):
    cache = PathCache(OWNER, capacity=8)
    now = 0.0
    for op, arg in ops:
        now += 1.0
        if op == "add":
            cache.add(arg, now)
        elif op == "remove":
            cache.remove_link(arg, now)
            assert not cache.contains_link(arg)
        elif op == "prune":
            cache.prune_stale(now, arg)
        elif op == "use":
            cache.note_links_used(arg, now, forwarded=False)


@given(ops=ops_strategy)
@settings(max_examples=60, deadline=None)
def test_link_cache_routes_always_loop_free(ops):
    cache = LinkCache(OWNER, capacity=16)
    now = 0.0
    for op, arg in ops:
        now += 1.0
        if op == "add":
            cache.add(arg, now)
        elif op == "remove":
            cache.remove_link(arg, now)
        elif op == "prune":
            cache.prune_stale(now, arg)
        elif op == "use":
            cache.note_links_used(arg, now, forwarded=True)
        for dst in range(1, 9):
            route = cache.find(dst)
            if route is not None:
                assert route[0] == OWNER and route[-1] == dst
                assert is_valid_route(route)
                for link in route_links(route):
                    assert cache.contains_link(link)


@given(
    routes=st.lists(route_strategy, max_size=20),
    bad_links=st.lists(link_strategy, min_size=1, max_size=10),
)
@settings(max_examples=60, deadline=None)
def test_negative_filter_keeps_caches_mutually_exclusive(routes, bad_links):
    negative = NegativeCache(capacity=16, timeout=100.0)
    cache = PathCache(OWNER, capacity=16)
    now = 1.0
    for link in bad_links:
        negative.add(link, now)
    for route in routes:
        filtered = negative.filter_route(route, now)
        if len(filtered) >= 2:
            cache.add(filtered, now)
    for link in bad_links:
        if negative.contains(link, now):  # may have been FIFO-evicted
            assert not cache.contains_link(link)


@given(
    keys=st.lists(st.integers(min_value=0, max_value=100), max_size=60),
    capacity=st.integers(min_value=1, max_value=16),
)
@settings(max_examples=50, deadline=None)
def test_seen_table_never_exceeds_capacity(keys, capacity):
    table = SeenTable(capacity=capacity)
    for i, key in enumerate(keys):
        table.insert(key, float(i))
        assert len(table) <= capacity
    # Everything still inside must report seen.
    for key in list(table._entries):
        assert table.seen(key, float(len(keys)))


# ---------------------------------------------------------------------------
# The reordered hit paths against the bodies they replaced
# ---------------------------------------------------------------------------


class _OraclePathCache(PathCache):
    """A full reference over its own store: an ``OrderedDict`` of
    :class:`CachedPath` records.  ``add``, ``find_with_age`` and
    ``remove_link`` are exactly as they stood at commit cbb0458: validate
    before the key lookup, ``tuple.index`` under try/except with a rank tuple
    per match, one ``link_position`` call per cached path.  ``paths`` and
    ``prune_stale`` are exactly as they stood at commit 904e526, before the
    cache stored bare entry times.  Kept verbatim as the reference the
    reordered methods must agree with, return value for return value and
    eviction order included; only the link bookkeeping is inherited."""

    def __init__(self, owner: int, capacity: int = 64):
        super().__init__(owner, capacity)
        self._paths: "OrderedDict[Tuple[int, ...], CachedPath]" = OrderedDict()

    def paths(self) -> List[CachedPath]:
        return list(self._paths.values())

    def add(self, route: Sequence[int], now: float) -> bool:
        if not is_valid_route(route) or route[0] != self.owner:
            return False
        key = tuple(route)
        if key in self._paths:
            self._paths.move_to_end(key)
            return False
        if len(self._paths) >= self.capacity:
            self._paths.popitem(last=False)
        self._paths[key] = CachedPath(route=key, added=now)
        return True

    def find_with_age(self, dst: int) -> Optional[Tuple[List[int], float]]:
        best: Optional[Tuple[int, float, Tuple[int, ...]]] = None
        for cached in self._paths.values():
            try:
                index = cached.route.index(dst)
            except ValueError:
                continue
            if index == 0:
                continue
            candidate = cached.route[: index + 1]
            rank = (len(candidate), -cached.added)
            if best is None or rank < (best[0], best[1]):
                best = (len(candidate), -cached.added, candidate)
        if best is None:
            return None
        return list(best[2]), -best[1]

    def remove_link(self, link: Link, now: float) -> List[float]:
        lifetimes: List[float] = []
        replacements: List[CachedPath] = []
        doomed: List[Tuple[int, ...]] = []
        for key, cached in self._paths.items():
            position = link_position(key, link)
            if position < 0:
                continue
            lifetimes.append(max(0.0, now - cached.added))
            doomed.append(key)
            if position >= 1:
                replacements.append(CachedPath(key[: position + 1], cached.added))
        for key in doomed:
            del self._paths[key]
        for replacement in replacements:
            if replacement.route not in self._paths:
                self._paths[replacement.route] = replacement
        return lifetimes

    def prune_stale(self, now: float, timeout: float) -> int:
        changed = 0
        new_paths: "OrderedDict[Tuple[int, ...], CachedPath]" = OrderedDict()
        for key, cached in self._paths.items():
            cut = len(cached.route)
            for i, link in enumerate(route_links(cached.route)):
                last = max(self._link_last_seen.get(link, cached.added), cached.added)
                if now - last > timeout:
                    cut = i + 1
                    break
            if cut == len(cached.route):
                new_paths[key] = cached
                continue
            changed += 1
            if cut >= 2:
                prefix = cached.route[:cut]
                if prefix not in new_paths:
                    new_paths[prefix] = CachedPath(prefix, cached.added)
        self._paths = new_paths
        return changed


# Every loop-free route from the owner over three other nodes: 15 routes, so
# re-sightings, shared prefixes and equal-length rivals for one destination
# are the rule.  Unconstrained routes add the rejects (empty, one node, loops,
# wrong owner).
_VALID_ROUTES = [
    [OWNER, *tail]
    for hops in (1, 2, 3)
    for tail in itertools.permutations((1, 2, 3), hops)
]
_valid_route = st.sampled_from(_VALID_ROUTES)
_any_route = st.lists(st.integers(min_value=0, max_value=3), max_size=4)
_route_as_given = st.one_of(_valid_route, _any_route).flatmap(
    lambda route: st.sampled_from([route, tuple(route)])
)
_any_link = st.tuples(
    st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)
)
# Steps of 0 make paths share an entry time, so ties on length meet ties on age.
_oracle_ops = st.lists(
    st.tuples(
        st.one_of(
            st.tuples(st.just("add"), _route_as_given),
            st.tuples(st.just("remove"), _any_link),
            st.tuples(st.just("prune"), st.floats(min_value=0.5, max_value=6.0)),
            st.tuples(st.just("use"), _valid_route),
        ),
        st.sampled_from([0.0, 1.0]),
    ),
    max_size=40,
)


@given(ops=_oracle_ops, capacity=st.integers(min_value=1, max_value=4))
@settings(max_examples=200, deadline=None)
def test_reordered_cache_paths_agree_with_their_oracle(ops, capacity):
    cache, oracle = PathCache(OWNER, capacity), _OraclePathCache(OWNER, capacity)
    now = 0.0
    for (op, arg), step in ops:
        now += step
        if op == "add":
            assert cache.add(arg, now) == oracle.add(arg, now)
        elif op == "remove":
            assert cache.remove_link(arg, now) == oracle.remove_link(arg, now)
        elif op == "prune":
            assert cache.prune_stale(now, arg) == oracle.prune_stale(now, arg)
        else:
            cache.note_links_used(arg, now, forwarded=False)
            oracle.note_links_used(arg, now, forwarded=False)
        assert cache.paths() == oracle.paths()  # same entries in eviction order
        # Present, absent (4 is on no route) and owner destinations alike.
        for dst in range(5):
            assert cache.find_with_age(dst) == oracle.find_with_age(dst)
