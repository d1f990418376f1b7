"""Unit tests for the DSR path cache."""

from repro.core.cache import PathCache


def test_add_and_find_exact_destination():
    cache = PathCache(owner=0)
    assert cache.add([0, 1, 2], now=0.0)
    assert cache.find(2) == [0, 1, 2]


def test_find_truncates_route_through_destination():
    cache = PathCache(owner=0)
    cache.add([0, 1, 2, 3], now=0.0)
    assert cache.find(2) == [0, 1, 2]


def test_find_prefers_shortest():
    cache = PathCache(owner=0)
    cache.add([0, 1, 2, 3, 4], now=0.0)
    cache.add([0, 5, 4], now=0.0)
    assert cache.find(4) == [0, 5, 4]


def test_rejects_routes_not_starting_at_owner():
    cache = PathCache(owner=0)
    assert not cache.add([1, 2, 3], now=0.0)
    assert len(cache) == 0


def test_rejects_loops_and_degenerates():
    cache = PathCache(owner=0)
    assert not cache.add([0, 1, 0], now=0.0)
    assert not cache.add([0], now=0.0)
    assert len(cache) == 0


def test_duplicate_add_keeps_entry_time():
    """Re-learning a cached route must not reset its entry time — the
    adaptive timeout measures lifetime from cache *entry* (paper sec. 3)."""
    cache = PathCache(owner=0)
    cache.add([0, 1, 2], now=0.0)
    assert not cache.add([0, 1, 2], now=5.0)
    assert cache.paths()[0].added == 0.0


def test_capacity_eviction():
    cache = PathCache(owner=0, capacity=2)
    cache.add([0, 1], now=0.0)
    cache.add([0, 2], now=1.0)
    cache.add([0, 3], now=2.0)
    assert len(cache) == 2
    assert cache.find(1) is None  # oldest evicted
    assert cache.find(3) is not None


def test_eviction_is_least_recently_sighted_not_fifo():
    """A re-added path moves to the young end of the eviction order but
    keeps its entry time, so a path that keeps being overheard survives."""
    cache = PathCache(owner=0, capacity=3)
    a, b, c, d = [0, 1, 9], [0, 2, 9], [0, 3, 9], [0, 4, 9]
    cache.add(a, now=0.0)
    cache.add(b, now=1.0)
    cache.add(c, now=2.0)
    assert not cache.add(a, now=3.0)  # re-sighted, not re-entered
    assert cache.add(d, now=4.0)
    assert [(p.route, p.added) for p in cache.paths()] == [
        ((0, 3, 9), 2.0),
        ((0, 1, 9), 0.0),
        ((0, 4, 9), 4.0),
    ]  # B, the least recently sighted, is gone; FIFO would have evicted A


def test_remove_link_truncates_and_reports_lifetimes():
    cache = PathCache(owner=0)
    cache.add([0, 1, 2, 3], now=10.0)
    cache.add([0, 4, 5], now=12.0)
    lifetimes = cache.remove_link((2, 3), now=20.0)
    assert lifetimes == [10.0]
    assert cache.find(3) is None
    assert cache.find(2) == [0, 1, 2]  # surviving prefix retained
    assert cache.find(5) == [0, 4, 5]  # untouched


def test_remove_first_hop_link_drops_path():
    cache = PathCache(owner=0)
    cache.add([0, 1, 2], now=0.0)
    cache.remove_link((0, 1), now=1.0)
    assert cache.find(2) is None
    assert cache.find(1) is None


def test_contains_link():
    cache = PathCache(owner=0)
    cache.add([0, 1, 2], now=0.0)
    assert cache.contains_link((1, 2))
    assert not cache.contains_link((2, 1))


def test_link_forwarded_tracking():
    cache = PathCache(owner=0)
    cache.note_links_forwarded([5, 0, 1, 2])
    assert cache.link_forwarded((1, 2))
    cache.note_links_seen([5, 3, 4], now=1.0)  # seen is not forwarded
    assert not cache.link_forwarded((3, 4))


def test_prune_stale_truncates_unused_portion():
    cache = PathCache(owner=0)
    cache.add([0, 1, 2, 3], now=0.0)
    # Link (0,1) and (1,2) used recently; (2,3) never used since entry.
    cache.note_links_seen([0, 1, 2], now=9.0)
    changed = cache.prune_stale(now=10.0, timeout=5.0)
    assert changed == 1
    assert cache.find(3) is None
    assert cache.find(2) == [0, 1, 2]


def test_prune_keeps_last_seen_times_of_kept_paths_only():
    cache = PathCache(owner=0)
    cache.add([0, 1, 2], now=0.0)
    cache.note_links_seen([0, 1, 2], now=4.0)
    cache.note_links_seen([0, 7, 8], now=4.0)  # on no cached path
    assert cache.prune_stale(now=5.0, timeout=3.0) == 0
    assert set(cache._link_last_seen) == {(0, 1), (1, 2)}
    # The kept sighting still counts at the next sweep.
    assert cache.prune_stale(now=6.5, timeout=3.0) == 0
    assert cache.find(2) == [0, 1, 2]


def test_prune_fresh_routes_survive():
    cache = PathCache(owner=0)
    cache.add([0, 1, 2], now=8.0)  # entry time counts as a sighting
    assert cache.prune_stale(now=10.0, timeout=5.0) == 0
    assert cache.find(2) == [0, 1, 2]


def test_prune_drops_whole_path_when_first_link_stale():
    cache = PathCache(owner=0)
    cache.add([0, 1, 2], now=0.0)
    assert cache.prune_stale(now=100.0, timeout=5.0) == 1
    assert len(cache) == 0
