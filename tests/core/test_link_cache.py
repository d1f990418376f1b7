"""Unit tests for the link-cache ablation."""

from repro.core.link_cache import LinkCache


def test_add_route_and_find():
    cache = LinkCache(owner=0)
    cache.add([0, 1, 2], now=0.0)
    assert cache.find(2) == [0, 1, 2]
    assert cache.find(1) == [0, 1]


def test_links_compose_across_routes():
    """The defining property of a link cache: links learned from separate
    routes combine into new paths a path cache could never produce."""
    cache = LinkCache(owner=0)
    cache.add([0, 1, 2], now=0.0)
    cache.add([0, 3], now=0.0)
    # Teach it 3 -> 2 via a route that starts at owner.
    cache.add([0, 3, 4], now=0.0)
    cache._insert_link((3, 2), now=0.0)
    assert cache.find(2) in ([0, 1, 2], [0, 3, 2])
    assert len(cache.find(2)) == 3


def test_find_shortest_hop_path():
    cache = LinkCache(owner=0)
    cache.add([0, 1, 2, 3], now=0.0)
    cache.add([0, 4, 3], now=0.0)
    assert cache.find(3) == [0, 4, 3]


def test_remove_link_breaks_path():
    cache = LinkCache(owner=0)
    cache.add([0, 1, 2], now=5.0)
    lifetimes = cache.remove_link((1, 2), now=9.0)
    assert lifetimes == [4.0]
    assert cache.find(2) is None
    assert cache.find(1) == [0, 1]


def test_remove_unknown_link_is_noop():
    cache = LinkCache(owner=0)
    assert cache.remove_link((7, 8), now=1.0) == []


def test_prune_stale_links():
    cache = LinkCache(owner=0)
    cache.add([0, 1, 2], now=0.0)
    cache.note_links_seen([0, 1], now=9.0)
    assert cache.prune_stale(now=10.0, timeout=5.0) == 1  # only (1,2) stale
    assert cache.find(1) == [0, 1]
    assert cache.find(2) is None


def test_capacity_evicts_least_recently_seen():
    cache = LinkCache(owner=0, capacity=2)
    cache.add([0, 1], now=0.0)
    cache.add([0, 2], now=1.0)
    cache.add([0, 3], now=2.0)
    assert len(cache) == 2
    assert cache.find(1) is None


def test_rejects_invalid_routes():
    cache = LinkCache(owner=0)
    assert not cache.add([1, 2], now=0.0)  # wrong start
    assert not cache.add([0, 1, 0], now=0.0)  # loop
    assert len(cache) == 0


def test_contains_and_forwarded():
    cache = LinkCache(owner=0)
    cache.add([0, 1, 2], now=0.0)
    assert cache.contains_link((0, 1))
    assert not cache.link_forwarded((0, 1))
    cache.note_links_forwarded([0, 1])
    assert cache.link_forwarded((0, 1))


def test_bfs_route_has_no_loops():
    cache = LinkCache(owner=0)
    cache.add([0, 1, 2, 3], now=0.0)
    cache.add([0, 2], now=0.0)
    route = cache.find(3)
    assert route[0] == 0 and route[-1] == 3
    assert len(set(route)) == len(route)
