"""Clock-free gates for work the per-listener hot paths no longer repeat.

Each names a piece of work whose answer the caller already had — a pause
of a defer timer that is not running, a validation of a path that is
already a cache key, a negative filter over an empty negative cache, an
exception per cached path a lookup rejects, a twelve-argument ``__init__``
per cloned packet — and fails if it comes back: the work is patched to
raise, or counted, never timed.
"""

import dataclasses
import sys

import repro.core.cache as cache_module
import repro.net.packet as packet_module
from repro.core.cache import PathCache
from repro.core.config import DsrConfig
from repro.core.negative_cache import NegativeCache
from repro.mac.dcf import DcfMac
from repro.net.packet import Packet, PacketKind
from repro.scenarios.builder import build_simulation
from repro.scenarios.presets import tiny_scenario

from tests.helpers import make_agent


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
