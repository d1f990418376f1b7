"""DSR agent unit tests: the paper's three caching techniques."""

from repro.core.config import DsrConfig, ExpiryMode
from repro.core.messages import RouteError
from repro.net.addresses import BROADCAST
from repro.net.packet import Packet, PacketKind

from tests.helpers import make_agent


def _inflight(node_id, route, uid=1):
    return Packet(
        kind=PacketKind.DATA,
        src=route[0],
        dst=route[-1],
        uid=uid,
        payload_bytes=512,
        source_route=list(route),
        route_index=route.index(node_id) + 1,
    )


def _wide_error(link, detector=9, error_id=1, src=None):
    return Packet(
        kind=PacketKind.RERR,
        src=src if src is not None else detector,
        dst=BROADCAST,
        uid=detector * 100 + error_id,
        info=RouteError(link=link, detector=detector, error_id=error_id),
    )


# ---------------------------------------------------------------------------
# Technique 1: wider error notification
# ---------------------------------------------------------------------------


def test_wider_error_broadcasts_instead_of_unicast():
    agent, node, sim = make_agent(2, dsr=DsrConfig.with_wider_error())
    failed = _inflight(2, [0, 2, 5, 6])
    agent.handle_unicast_failure(failed, next_hop=5)
    errors = [(p, nh) for p, nh in node.mac.sent if p.kind is PacketKind.RERR]
    assert len(errors) == 1
    packet, next_hop = errors[0]
    assert next_hop == BROADCAST
    assert packet.dst == BROADCAST
    assert packet.info.link == (2, 5)


def test_wide_error_truncates_cache_on_receipt():
    agent, node, sim = make_agent(3, dsr=DsrConfig.with_wider_error())
    agent.cache.add([3, 2, 5, 6], now=0.0)
    agent.handle_packet(_wide_error((2, 5)))
    assert agent.cache.find(6) is None
    assert agent.cache.find(2) == [3, 2]


def test_wide_error_relayed_only_if_cached_and_forwarded():
    # Case 1: cached AND forwarded over the link -> relay.
    agent, node, sim = make_agent(3, dsr=DsrConfig.with_wider_error())
    agent.cache.add([3, 2, 5, 6], now=0.0)
    agent.cache.note_links_forwarded([3, 2, 5, 6])
    agent.handle_packet(_wide_error((2, 5)))
    sim.run(until=0.1)  # rebroadcast jitter
    relays = [p for p, nh in node.mac.sent if p.kind is PacketKind.RERR]
    assert len(relays) == 1

    # Case 2: cached but never forwarded -> no relay.
    agent2, node2, sim2 = make_agent(4, dsr=DsrConfig.with_wider_error())
    agent2.cache.add([4, 2, 5, 6], now=0.0)
    agent2.handle_packet(_wide_error((2, 5)))
    sim2.run(until=0.1)
    assert [p for p, _ in node2.mac.sent if p.kind is PacketKind.RERR] == []

    # Case 3: forwarded but no longer cached -> no relay.
    agent3, node3, sim3 = make_agent(5, dsr=DsrConfig.with_wider_error())
    agent3.cache.note_links_forwarded([0, 2, 5, 6])
    agent3.handle_packet(_wide_error((2, 5)))
    sim3.run(until=0.1)
    assert [p for p, _ in node3.mac.sent if p.kind is PacketKind.RERR] == []


def test_wide_error_deduplicated():
    agent, node, sim = make_agent(3, dsr=DsrConfig.with_wider_error())
    agent.cache.add([3, 2, 5, 6], now=0.0)
    agent.cache.note_links_forwarded([3, 2, 5, 6])
    agent.handle_packet(_wide_error((2, 5), error_id=7))
    agent.cache.add([3, 2, 5, 6], now=0.0)  # re-pollute to tempt a second relay
    agent.cache.note_links_forwarded([3, 2, 5, 6])
    agent.handle_packet(_wide_error((2, 5), error_id=7, src=8))  # relayed copy
    sim.run(until=0.1)
    relays = [p for p, _ in node.mac.sent if p.kind is PacketKind.RERR]
    assert len(relays) == 1


# ---------------------------------------------------------------------------
# Technique 2: timer-based route expiry
# ---------------------------------------------------------------------------


def test_static_expiry_prunes_unused_routes():
    agent, node, sim = make_agent(
        0, dsr=DsrConfig(expiry_mode=ExpiryMode.STATIC, static_timeout=2.0)
    )
    agent.cache.add([0, 1, 2], now=0.0)
    sim.run(until=3.0)  # sweeps every 0.5 s
    assert agent.cache.find(2) is None


def test_static_expiry_spares_recently_used_routes():
    agent, node, sim = make_agent(
        0, dsr=DsrConfig(expiry_mode=ExpiryMode.STATIC, static_timeout=2.0)
    )
    agent.cache.add([0, 1, 2], now=0.0)
    keep_alive = Packet(
        kind=PacketKind.DATA,
        src=0,
        dst=2,
        uid=1,
        source_route=[0, 1, 2],
        route_index=0,
    )

    def refresh():
        agent.cache.note_links_seen([0, 1, 2], sim.now)

    for t in (1.0, 2.0, 3.0):
        sim.schedule_at(t, refresh)
    sim.run(until=3.4)
    assert agent.cache.find(2) == [0, 1, 2]


def test_adaptive_expiry_waits_for_first_break():
    agent, node, sim = make_agent(0, dsr=DsrConfig.with_adaptive_expiry())
    agent.cache.add([0, 1, 2], now=0.0)
    sim.run(until=5.0)
    # No breaks observed: no basis for a timeout, so nothing pruned.
    assert agent.cache.find(2) == [0, 1, 2]


def test_adaptive_expiry_prunes_after_breaks():
    agent, node, sim = make_agent(0, dsr=DsrConfig.with_adaptive_expiry())
    agent.cache.add([0, 1, 2], now=0.0)
    agent.cache.add([0, 3, 4], now=0.0)

    def break_link():
        # A short-lived route breaks: avg lifetime 0.5 -> timeout ~1 s.
        agent._absorb_link_break((1, 2))

    sim.schedule_at(0.5, break_link)
    sim.run(until=10.0)
    # The untouched route [0,3,4] should eventually be pruned once the
    # timeout (max(alpha*0.5, time-since-break) >= 1 s) is exceeded...
    # but time-since-break grows, keeping T near `now`, so the route from
    # t=0 eventually exceeds it. At t=10, T = max(1.0, 9.5) = 9.5 > age 10.
    sim.schedule(10.0, lambda: None)
    sim.run(until=25.0)
    assert agent.cache.find(4) is None


def test_no_expiry_keeps_routes_forever():
    agent, node, sim = make_agent(0, dsr=DsrConfig.base())
    agent.cache.add([0, 1, 2], now=0.0)
    sim.run(until=50.0)
    assert agent.cache.find(2) == [0, 1, 2]


# ---------------------------------------------------------------------------
# Technique 3: negative caches
# ---------------------------------------------------------------------------


def test_broken_link_enters_negative_cache_on_feedback():
    agent, node, sim = make_agent(2, dsr=DsrConfig.with_negative_cache())
    failed = _inflight(2, [0, 2, 5, 6])
    agent.handle_unicast_failure(failed, next_hop=5)
    assert agent.negative.contains((2, 5), now=sim.now)


def test_negative_cache_blocks_route_reinsertion():
    """The pollution scenario from the paper: right after a link break, an
    in-flight packet carrying the stale route must not re-teach it."""
    agent, node, sim = make_agent(2, dsr=DsrConfig.with_negative_cache())
    agent.handle_unicast_failure(_inflight(2, [0, 2, 5, 6]), next_hop=5)
    # A stale in-flight packet arrives carrying the dead link.
    assert not agent._cache_add([2, 5, 6])
    assert agent.cache.find(6) is None
    # Routes not touching the dead link still cache fine.
    assert agent._cache_add([2, 7, 6])


def test_negative_cache_truncates_partial_routes():
    agent, node, sim = make_agent(2, dsr=DsrConfig.with_negative_cache())
    agent.negative.add((5, 6), now=0.0)
    agent._cache_add([2, 5, 6, 7])
    assert agent.cache.find(7) is None
    assert agent.cache.find(5) == [2, 5]  # clean prefix survives


def test_negative_entries_expire_and_allow_relearning():
    agent, node, sim = make_agent(
        2, dsr=DsrConfig.with_negative_cache().but(negative_cache_timeout=5.0)
    )
    agent.negative.add((5, 6), now=0.0)
    sim.run(until=6.0)
    assert agent._cache_add([2, 5, 6])
    assert agent.cache.find(6) == [2, 5, 6]


def test_received_error_populates_negative_cache():
    agent, node, sim = make_agent(3, dsr=DsrConfig.with_negative_cache())
    error = Packet(
        kind=PacketKind.RERR,
        src=6,
        dst=3,
        uid=4,
        source_route=[6, 3],
        route_index=1,
        info=RouteError(link=(5, 6), detector=6, error_id=1),
    )
    agent.handle_packet(error)
    assert agent.negative.contains((5, 6), now=sim.now)


def test_all_techniques_config_wires_everything():
    agent, node, sim = make_agent(0, dsr=DsrConfig.all_techniques())
    assert agent.negative is not None
    assert agent.config.wider_error
    from repro.core.expiry import AdaptiveTimeout

    assert isinstance(agent.policy, AdaptiveTimeout)


# ---------------------------------------------------------------------------
# Ablation plumbing: link cache drop-in
# ---------------------------------------------------------------------------


def test_link_cache_agent_variant():
    agent, node, sim = make_agent(0, dsr=DsrConfig(use_link_cache=True))
    from repro.core.link_cache import LinkCache

    assert isinstance(agent.cache, LinkCache)
    agent.cache.add([0, 1, 2], now=0.0)
    agent.originate(
        Packet(kind=PacketKind.DATA, src=0, dst=2, uid=1, payload_bytes=512)
    )
    data = [(p, nh) for p, nh in node.mac.sent if p.kind is PacketKind.DATA]
    assert len(data) == 1
    assert data[0][0].source_route == [0, 1, 2]
