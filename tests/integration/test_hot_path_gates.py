"""Clock-free gates for work the per-listener hot paths no longer repeat.

Each names a piece of work whose answer the caller already had — a pause
of a defer timer that is not running, a validation of a path that is
already a cache key, a negative filter over an empty negative cache, an
exception per cached path a lookup rejects, a twelve-argument ``__init__``
per cloned packet, a per-listener lookup while a delivery plan is built, a
collector-tracked tuple per listener of that plan, a second gather of a 3x3
grid block that has not changed — and fails if it comes back: the work is
patched to raise, or counted, never timed.
"""

import dataclasses
import gc
import sys

import pytest

import repro.core.cache as cache_module
import repro.net.packet as packet_module
from repro.analysis.cache import result_to_payload
from repro.core.cache import PathCache
from repro.core.config import DsrConfig
from repro.core.negative_cache import NegativeCache
from repro.mac.dcf import DcfMac
from repro.mobility.base import MobilityModel
from repro.mobility.static import StaticModel
from repro.mobility.trajectory import Segment, Trajectory
from repro.net.packet import Packet, PacketKind
from repro.phy.neighbors import NeighborCache
from repro.phy.propagation import DiskPropagation
from repro.phy.spatial import UniformGridIndex
from repro.scenarios.builder import build_simulation
from repro.scenarios.presets import tiny_scenario
from repro.sim.trace import Tracer

from tests.helpers import make_agent
from tests.phy.test_plan_oracle import KINDS, _pair


def _must_not_run(*args, **kwargs):
    raise AssertionError("repeated work is back on a hot path")


def test_a_whole_run_never_pauses_an_idle_defer_nor_reinitialises_a_clone(monkeypatch):
    entries = []
    real_pause = DcfMac._pause_defer

    def counting_pause(mac, *args):
        entries.append(mac._defer_started)
        return real_pause(mac, *args)

    monkeypatch.setattr(DcfMac, "_pause_defer", counting_pause)
    monkeypatch.setattr(dataclasses, "replace", _must_not_run)
    monkeypatch.setattr(packet_module, "replace", _must_not_run, raising=False)
    config = tiny_scenario(dsr=DsrConfig.all_techniques(), seed=2)
    result = build_simulation(config).run()
    assert result.data_received > 0
    assert len(entries) > 100  # the run did contend for the medium
    assert entries.count(None) == 0


def test_a_run_without_observers_emits_no_unwanted_hot_path_record(monkeypatch):
    """MAC, PHY, engine and DSR emits sit behind ``tracer.wants(kind)``: with
    only the run's collector subscribed, ``Tracer.emit`` is never reached from
    those layers for a kind nobody wants (no record dict is built for it)."""
    hot_layers = ("repro.mac.", "repro.phy.", "repro.sim.", "repro.core.")
    real_emit = Tracer.emit

    def guarded_emit(tracer, time, kind, **fields):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if caller.startswith(hot_layers) and not tracer.wants(kind):
            raise AssertionError(f"{caller} emits unwanted {kind!r} records")
        real_emit(tracer, time, kind, **fields)

    monkeypatch.setattr(Tracer, "emit", guarded_emit)
    config = tiny_scenario(dsr=DsrConfig.all_techniques(), seed=2)
    result = build_simulation(config).run()
    assert result.data_received > 0 and result.mac_failures > 0


def test_resighting_a_cached_path_validates_nothing(monkeypatch):
    cache = PathCache(owner=0, capacity=3)
    cache.add([0, 1, 2], now=0.0)
    cache.add([0, 3], now=1.0)
    monkeypatch.setattr(cache_module, "is_valid_route", _must_not_run)
    assert cache.add([0, 1, 2], now=2.0) is False
    assert cache.add((0, 1, 2), now=3.0) is False
    assert [(p.route, p.added) for p in cache.paths()] == [((0, 3), 1.0), ((0, 1, 2), 0.0)]


def test_an_empty_negative_cache_is_not_consulted(monkeypatch):
    agent, _node, _sim = make_agent(0, dsr=DsrConfig.all_techniques())
    assert agent.negative is not None and len(agent.negative) == 0
    monkeypatch.setattr(NegativeCache, "filter_route", _must_not_run)
    assert agent._cache_add([0, 4, 5]) is True
    assert agent.cache.find(5) == [0, 4, 5]


def test_a_lookup_that_matches_nothing_raises_nothing():
    cache = PathCache(owner=0, capacity=64)
    for i in range(64):
        cache.add([0, 100 + i, 200 + i], now=float(i))
    assert len(cache) == cache.capacity
    raised = []

    def tracer(frame, event, arg):
        if event == "exception":
            raised.append((frame.f_code.co_name, arg[0].__name__))
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        found = cache.find_with_age(999)
    finally:
        sys.settrace(previous)
    assert found is None
    assert raised == []


def test_clone_copies_fields_without_dataclasses_replace(monkeypatch):
    monkeypatch.setattr(dataclasses, "replace", _must_not_run)
    monkeypatch.setattr(packet_module, "replace", _must_not_run, raising=False)
    packet = Packet(
        kind=PacketKind.DATA,
        src=0,
        dst=3,
        uid=7,
        payload_bytes=512,
        born=1.5,
        source_route=[0, 1, 2, 3],
        route_index=1,
        ttl=9,
        info="info",
        salvaged=1,
        piggyback="rider",
    )
    copy = packet.clone()
    assert copy == packet and copy is not packet
    assert copy.source_route is not packet.source_route
    moved = packet.clone(route_index=2, source_route=packet.source_route)
    assert moved.route_index == 2 and moved.source_route is packet.source_route
    assert dataclasses.asdict(moved) == {**dataclasses.asdict(packet), "route_index": 2}


# -- delivery plans and the grid's block cache ---------------------------------


@pytest.mark.parametrize(
    "profile_kind",
    [{}, {"link_loss": 0.2}, {"radio_profile": "urban"}],
    ids=["plain", "lossy", "lossy+capture"],
)
def test_a_plan_is_built_without_the_per_listener_queries(monkeypatch, profile_kind):
    """The channel assembles plans from ``NeighborCache.listeners`` alone:
    a grid-indexed run gives the same result with the per-listener list and
    distance queries patched to raise."""
    config = tiny_scenario(seed=3).but(
        duration=10.0, neighbor_index="grid", **profile_kind
    )
    expected = result_to_payload(build_simulation(config).run())
    assert expected["data_received"] > 0
    for query in ("rx_neighbors", "cs_neighbors", "distance"):
        monkeypatch.setattr(NeighborCache, query, _must_not_run)
    assert result_to_payload(build_simulation(config).run()) == expected


@pytest.mark.parametrize("kind", KINDS)
def test_a_plan_miss_leaves_a_handful_of_tracked_containers(kind):
    """A plan is four columns, not a tuple per listener: what a miss leaves
    for the cycle collector to track does not grow with the listener count
    (it was listeners + 1, and a 1000-node flood spent a sixth of its run in
    collections that freed nothing).  Counted by the collector's own
    generation-0 counter, with the geometry memo warm so only the plan is
    measured."""
    # 90 nodes 10 m apart: the end node is sensed by 55 others, a middle one by 89.
    line = [(10.0 * i, 0.0) for i in range(90)]
    channel, _reference = _pair(lambda: StaticModel(line), "allpairs", kind)
    neighbors = channel.neighbors
    channel._plan_for(1, 0.0)  # the radio column is indexed, the quantum is current
    rises = {}
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for sender in (0, 45):
            listeners = len(neighbors.listeners(sender, 0.0)[0])
            before = gc.get_count()[0]
            channel._plan_for(sender, 0.0)
            rises[listeners] = gc.get_count()[0] - before
    finally:
        if was_enabled:
            gc.enable()
    assert sorted(rises) == [55, 89]
    assert all(0 < rise <= 8 for rise in rises.values()), rises


def _count_bucket_calls(monkeypatch):
    """``(_bucket calls, occupied cells at each rebucket)``, filled as the
    grid runs."""
    bucket_calls, rebucket_cells = [], []
    real_bucket = UniformGridIndex._bucket
    real_rebucket = UniformGridIndex._rebucket

    def counting_bucket(index, key):
        bucket_calls.append(key)
        return real_bucket(index, key)

    def counting_rebucket(index, positions, t):
        real_rebucket(index, positions, t)
        rebucket_cells.append(len(index._occupied))

    monkeypatch.setattr(UniformGridIndex, "_bucket", counting_bucket)
    monkeypatch.setattr(UniformGridIndex, "_rebucket", counting_rebucket)
    return bucket_calls, rebucket_cells


def test_a_second_query_from_a_cell_gathers_nothing(monkeypatch):
    bucket_calls, rebucket_cells = _count_bucket_calls(monkeypatch)
    drift = {"vx": 1.0, "vy": 0.0}
    mobility = MobilityModel(
        {
            0: Trajectory([Segment(t0=0.0, x0=10.0, y0=10.0, **drift)]),
            1: Trajectory([Segment(t0=0.0, x0=40.0, y0=20.0, **drift)]),
            2: Trajectory([Segment(t0=0.0, x0=900.0, y0=10.0, **drift)]),
        }
    )
    cache = NeighborCache(mobility, DiskPropagation(), quantum=0.05, index="grid")
    assert cache.cs_neighbors(0, 0.0) == [1]
    gathered = len(bucket_calls)
    assert 0 < gathered <= 9
    # Same cell: another row in the same quantum, the same row a few quanta
    # on (fresh positions, same buckets: the 1 s rebucket horizon holds).
    assert cache.cs_neighbors(1, 0.0) == [0]
    assert cache.cs_neighbors(0, 0.5) == [1]
    assert len(bucket_calls) == gathered and rebucket_cells == [2]
    # Past the horizon the buckets, and so the blocks, are rebuilt.
    cache.cs_neighbors(0, 1.5)
    assert len(bucket_calls) > gathered and len(rebucket_cells) == 2


def test_a_whole_run_gathers_each_block_once_per_rebucket(monkeypatch):
    bucket_calls, rebucket_cells = _count_bucket_calls(monkeypatch)
    config = tiny_scenario(seed=2).but(
        duration=10.0, field_width=1500.0, field_height=900.0, neighbor_index="grid"
    )
    result = build_simulation(config).run()
    assert result.data_sent > 0 and len(rebucket_cells) > 1
    assert 0 < len(bucket_calls) <= 9 * sum(rebucket_cells)
