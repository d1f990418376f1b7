"""The DSR routing agent.

One :class:`DsrAgent` runs on every node.  It implements:

**Base DSR** (paper section 2): on-demand route discovery by flooded route
requests with accumulated path records; route replies from the target *and*
from intermediate-node caches; source-routed forwarding; route maintenance
driven by link-layer feedback; and the four standard optimisations —
salvaging, gratuitous route repair, promiscuous listening (snooping +
gratuitous route shortening), and non-propagating (one-hop) route requests.

**The paper's three techniques** (section 3), each independently toggleable
through :class:`~repro.core.config.DsrConfig`:

1. *Wider error notification* — route errors are MAC broadcasts; a receiver
   rebroadcasts only if it had a cached route containing the broken link
   **and** had forwarded packets over it, so errors spread as a tree rooted
   at the failure point.
2. *Timer-based route expiry* — a periodic sweep prunes cached route
   portions unused for longer than a (static or adaptive) timeout.
3. *Negative caches* — recently broken links are quarantined: packets
   carrying them are dropped with a route error, and routes are filtered
   against them before entering the cache.

Instrumentation is emitted through the tracer (``dsr.*`` events); the
ground-truth ``validity_oracle`` lets the metrics layer score cached routes
and replies against actual node positions without influencing the protocol.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.cache import PathCache
from repro.core.config import DsrConfig, ExpiryMode
from repro.core.link_cache import LinkCache
from repro.core.messages import RouteError, RouteReply, RouteRequest
from repro.core.request_table import RequestTable, SeenTable
from repro.core.routes import concatenate_routes
from repro.core.expiry import make_timeout_policy
from repro.core.freshness import LinkBreakHistory
from repro.core.negative_cache import NegativeCache
from repro.net.addresses import BROADCAST
from repro.net.packet import Packet, PacketKind
from repro.net.sendbuffer import SendBuffer
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer, Timer
from repro.sim.trace import Tracer

Link = Tuple[int, int]
RouteCache = Union[PathCache, LinkCache]


class _Discovery:
    """Per-target route-discovery state.

    ``next_allowed`` rate-limits request origination: without it, a reply
    whose route is immediately rejected (negative-cache filtering, loops)
    would re-trigger discovery in a tight loop and flood the network with
    back-to-back route requests.
    """

    __slots__ = ("attempts", "timer", "next_allowed")

    def __init__(self, timer: Timer):
        self.attempts = 0
        self.timer = timer
        self.next_allowed = 0.0


class DsrAgent:
    """Dynamic Source Routing for a single node."""

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        config: Optional[DsrConfig] = None,
        rng: Optional[np.random.Generator] = None,
        tracer: Optional[Tracer] = None,
        validity_oracle: Optional[Callable[[Sequence[int]], bool]] = None,
    ):
        self.node_id = node_id
        self._sim = sim
        self.config = config or DsrConfig()
        # Test-convenience fallback only: the scenario builder always injects
        # a RandomStreams stream derived from the scenario seed.
        self._rng = rng or np.random.default_rng(node_id)
        self._tracer = tracer or Tracer()
        self._oracle = validity_oracle

        cfg = self.config
        self.cache: RouteCache
        if cfg.use_link_cache:
            self.cache = LinkCache(node_id, capacity=4 * cfg.cache_capacity)
        else:
            self.cache = PathCache(node_id, capacity=cfg.cache_capacity)
        self.negative = (
            NegativeCache(cfg.negative_cache_size, cfg.negative_cache_timeout)
            if cfg.negative_cache
            else None
        )
        self.break_history = LinkBreakHistory() if cfg.freshness_tags else None
        self.policy = make_timeout_policy(cfg)
        self.send_buffer = SendBuffer(
            capacity=cfg.send_buffer_capacity, max_wait=cfg.send_buffer_timeout
        )
        self._seen_requests = RequestTable()
        self._seen_errors = SeenTable(capacity=1024, lifetime=30.0)
        self._grat_replies = SeenTable(capacity=256, lifetime=cfg.grat_reply_holdoff)
        self._discoveries: Dict[int, _Discovery] = {}
        self._request_counter = 0
        self._error_counter = 0
        self._pending_error: Optional[RouteError] = None
        # Reply-storm prevention: (origin, request_id) -> (event, route_len).
        self._pending_replies: Dict[Tuple[int, int], Tuple[object, int]] = {}

        # Each per-link table is written only where it is read: last-seen
        # times by the expiry sweep (and the link cache's eviction), the
        # forwarded-links set by wider-error relay gating.
        self._stamp_links = cfg.use_link_cache or cfg.expiry_mode is not ExpiryMode.NONE
        self._note_forwarded = cfg.wider_error

        self.node = None  # wired by Node.__init__ via attach()
        self._expiry_sweep = PeriodicTimer(sim, cfg.expiry_check_period, self._expire_routes)
        self._buffer_sweep = PeriodicTimer(sim, 1.0, self._sweep_send_buffer)

    # ------------------------------------------------------------------
    # Stack wiring
    # ------------------------------------------------------------------

    def attach(self, node) -> None:
        """Called by :class:`repro.net.node.Node` once the stack exists."""
        self.node = node
        if self.config.expiry_mode is not ExpiryMode.NONE:
            self._expiry_sweep.start()
        self._buffer_sweep.start()

    # ------------------------------------------------------------------
    # Small helpers
    # ------------------------------------------------------------------

    def _now(self) -> float:
        return self._sim.now

    def _emit(self, kind: str, **fields) -> None:
        self._tracer.emit(self._sim.now, kind, node=self.node_id, **fields)

    def _route_is_valid(self, route: Sequence[int]) -> Optional[bool]:
        if self._oracle is None:
            return None
        return self._oracle(route)

    def _next_request_id(self) -> int:
        self._request_counter += 1
        return self._request_counter

    def _next_error_id(self) -> int:
        self._error_counter += 1
        return self._error_counter

    def _cache_add(self, route: Sequence[int], stamp: Optional[float] = None) -> bool:
        """Insert a route (starting at this node) after negative filtering.

        The cache validates (degenerate and looping routes are ignored) and
        takes its own copy, so callers pass slices and need not pre-check.
        ``stamp`` overrides the entry time — freshness tagging caches a
        reply at its *generation* time, not its arrival time, so information
        age survives re-serving.
        """
        now = self._sim.now
        negative = self.negative
        if negative:  # disabled or empty (the usual case): nothing to filter
            route = negative.filter_route(route, now)
            if len(route) < 2:
                return False
        return self.cache.add(route, now if stamp is None else stamp)

    def _lookup_with_age(self, dst: int, purpose: str):
        """Cache lookup instrumented for the "% invalid cached routes"
        metric: every hit is scored against ground truth."""
        found = self.cache.find_with_age(dst)
        if found is not None and self._tracer.wants("dsr.cache_use"):
            self._emit(
                "dsr.cache_use",
                purpose=purpose,
                dst=dst,
                length=len(found[0]),
                valid=self._route_is_valid(found[0]),
            )
        return found

    def _lookup(self, dst: int, purpose: str) -> Optional[List[int]]:
        found = self._lookup_with_age(dst, purpose)
        return None if found is None else found[0]

    # ------------------------------------------------------------------
    # Application-facing entry point
    # ------------------------------------------------------------------

    def originate(self, packet: Packet) -> None:
        """Send an application packet, discovering a route if necessary."""
        if packet.dst == self.node_id:
            self.node.deliver_to_app(packet)
            return
        route = self._lookup(packet.dst, purpose="originate")
        if route is not None:
            self._dispatch_with_route(packet, route)
        else:
            self._buffer_and_discover(packet)

    def _dispatch_with_route(self, packet: Packet, route: List[int]) -> None:
        ready = packet.clone(source_route=list(route), route_index=0)
        self._transmit_source_routed(ready)

    def _buffer_and_discover(self, packet: Packet) -> None:
        evicted = self.send_buffer.add(packet, self._now())
        if evicted is not None:
            self._drop(evicted, "send-buffer-overflow")
        self._start_discovery(packet.dst)

    # ------------------------------------------------------------------
    # Source-routed transmission / forwarding
    # ------------------------------------------------------------------

    def _transmit_source_routed(self, packet: Packet) -> None:
        """Hand a source-routed unicast to the MAC (we are route[index])."""
        route = packet.source_route
        assert route is not None
        index = packet.route_index
        if index + 1 >= len(route):
            # Degenerate: we are the last hop already.
            if packet.kind is PacketKind.DATA and packet.dst == self.node_id:
                self.node.deliver_to_app(packet)
            return
        next_hop = route[index + 1]
        if self._stamp_links:
            self.cache.note_links_seen(route, self._now())
        if self._note_forwarded:
            self.cache.note_links_forwarded(route)
        outgoing = packet.clone(route_index=index + 1)
        self.node.mac.enqueue(outgoing, next_hop)

    def _forward(self, packet: Packet) -> None:
        """Forward a unicast source-routed packet one hop."""
        route = packet.source_route
        if route is None or packet.route_index >= len(route):
            self._drop(packet, "malformed-route")
            return
        if packet.kind is PacketKind.DATA and self.negative is not None:
            bad = self.negative.first_bad_link(packet.remaining_route(), self._now())
            if bad is not None:
                self._drop(packet, "negative-cache")
                self._send_route_error(packet, bad)
                return
        if packet.kind is PacketKind.RREP and self.negative is not None:
            reply: RouteReply = packet.info
            if self.negative.first_bad_link(reply.route, self._now()) is not None:
                self._drop(packet, "negative-cache-reply")
                return
        self._learn_from_route(route)
        if packet.kind is PacketKind.RREP:
            self._learn_from_route(packet.info.route)
        self._transmit_source_routed(packet)

    def _learn_from_route(self, route: Sequence[int]) -> bool:
        """Cache what a route passing through us teaches: the suffix toward
        its end and the reversed prefix back toward its start.  Returns
        False if we are not on the route."""
        if self.node_id not in route:
            return False
        index = route.index(self.node_id)
        if index + 2 <= len(route):
            self._cache_add(route[index:])
        if index >= 1:
            self._cache_add(route[index::-1])
        return True

    # ------------------------------------------------------------------
    # Packet reception (MAC deliver callback)
    # ------------------------------------------------------------------

    def handle_packet(self, packet: Packet) -> None:
        if packet.kind is PacketKind.DATA:
            self._handle_data(packet)
        elif packet.kind is PacketKind.RREQ:
            self._handle_request(packet)
        elif packet.kind is PacketKind.RREP:
            self._handle_reply(packet)
        elif packet.kind is PacketKind.RERR:
            self._handle_error(packet)

    def _handle_data(self, packet: Packet) -> None:
        if packet.source_route is not None:
            self._learn_from_route(packet.source_route)
        if packet.dst == self.node_id or packet.at_destination():
            self.node.deliver_to_app(packet)
            return
        self._forward(packet)

    # -- route discovery ----------------------------------------------------

    def _handle_request(self, packet: Packet) -> None:
        request: RouteRequest = packet.info
        me = self.node_id
        if request.origin == me:
            return
        if packet.piggyback is not None:
            self._absorb_error(packet.piggyback)
        if me in request.record:
            return  # we already forwarded this copy; looping record
        accumulated = list(request.record) + [me]

        if request.target == me:
            # The destination replies to *every* request copy it receives so
            # the source learns alternate routes (paper section 3).
            self._seen_requests.insert((request.origin, request.request_id), self._now())
            self._cache_add(accumulated[::-1])
            self._send_reply(accumulated, request, from_cache=False)
            return

        if self._seen_requests.seen((request.origin, request.request_id), self._now()):
            return
        self._seen_requests.insert((request.origin, request.request_id), self._now())
        self._cache_add(accumulated[::-1])

        if self.config.reply_from_cache:
            found = self._lookup_with_age(request.target, purpose="reply")
            if found is not None:
                cached, cached_age = found
                full = concatenate_routes(accumulated, cached)
                if full is not None:
                    self._send_reply(
                        full, request, from_cache=True, generated_at=cached_age
                    )
                    return  # cached reply quenches the flood here
        if packet.ttl > 1:
            forwarded = packet.clone(ttl=packet.ttl - 1)
            forwarded.info = RouteRequest(
                origin=request.origin,
                target=request.target,
                request_id=request.request_id,
                record=accumulated,
            )
            self._broadcast_with_jitter(forwarded)

    def _broadcast_with_jitter(self, packet: Packet) -> None:
        """Desynchronise flood rebroadcasts (as the CMU model does) so
        neighbouring rebroadcasts don't collide deterministically."""
        jitter = float(self._rng.uniform(0.0, self.config.broadcast_jitter))
        self._sim.schedule(jitter, self.node.mac.enqueue, packet, BROADCAST)

    def _send_reply(
        self,
        full_route: List[int],
        request: RouteRequest,
        from_cache: bool,
        generated_at: Optional[float] = None,
    ) -> None:
        """Unicast a route reply carrying ``full_route`` back to its origin."""
        me = self.node_id
        back_route = list(reversed(full_route[: full_route.index(me) + 1]))
        if len(back_route) < 2:
            return
        stamp = None
        if self.config.freshness_tags:
            stamp = self._now() if generated_at is None else generated_at
        reply = RouteReply(
            route=list(full_route),
            request_id=request.request_id,
            from_cache=from_cache,
            generated_at=stamp,
        )
        packet = Packet(
            kind=PacketKind.RREP,
            src=me,
            dst=request.origin,
            uid=self.node.next_uid(),
            born=self._now(),
            source_route=back_route,
            route_index=0,
            info=reply,
        )
        self._emit(
            "dsr.reply_sent",
            from_cache=from_cache,
            origin=request.origin,
            target=request.target,
            length=len(full_route),
        )
        if self.config.reply_storm_prevention and from_cache:
            # DSR draft 3.5.3: delay proportional to route length so holders
            # of shorter routes answer first, then suppress on overhearing.
            hops = len(full_route) - 1
            slot = self.config.reply_storm_slot
            delay = slot * (hops - 1 + float(self._rng.uniform(0.0, 1.0)))
            key = (request.origin, request.request_id)
            event = self._sim.schedule(
                max(delay, 0.0), self._fire_pending_reply, key, packet
            )
            self._pending_replies[key] = (event, len(full_route))
            return
        jitter = float(self._rng.uniform(0.0, self.config.reply_jitter))
        self._sim.schedule(jitter, self._transmit_source_routed, packet)

    def _fire_pending_reply(self, key: Tuple[int, int], packet: Packet) -> None:
        self._pending_replies.pop(key, None)
        self._transmit_source_routed(packet)

    def _suppress_longer_replies(
        self, origin: int, request_id: int, observed_length: int
    ) -> None:
        """Someone else's reply for the same request is on the air; if ours
        offers no shorter route, cancel it."""
        key = (origin, request_id)
        pending = self._pending_replies.get(key)
        if pending is None:
            return
        event, our_length = pending
        if our_length >= observed_length:
            event.cancel()
            del self._pending_replies[key]
            if self._tracer.wants("dsr.reply_suppressed"):
                self._emit(
                    "dsr.reply_suppressed",
                    origin=origin,
                    request_id=request_id,
                    length=our_length,
                    observed=observed_length,
                )

    def _handle_reply(self, packet: Packet) -> None:
        reply: RouteReply = packet.info
        if packet.dst != self.node_id:
            self._forward(packet)
            return
        valid = None
        if self._tracer.wants("dsr.reply_recv"):
            valid = self._route_is_valid(reply.route)
        self._emit(
            "dsr.reply_recv",
            from_cache=reply.from_cache,
            gratuitous=reply.gratuitous,
            length=len(reply.route),
            valid=valid,
        )
        if self.break_history is not None and reply.generated_at is not None:
            # Freshness date-check: reject the portion of the route whose
            # information predates a break we already know about.
            dated = self.break_history.filter_route(
                reply.route, reply.generated_at
            )
            self._cache_add(dated, stamp=reply.generated_at)
        else:
            self._cache_add(reply.route)
        target = reply.route[-1]
        # Only declare the discovery finished if the reply actually yielded
        # a usable route (the negative cache may have rejected it); an
        # unusable reply leaves the existing retry backoff in place.
        if self.cache.has_route_to(target):
            self._finish_discovery(target)
        self._drain_send_buffer(target)

    def _finish_discovery(self, target: int) -> None:
        """Discovery succeeded: stop retrying, reset the attempt ladder.

        The state object (and its ``next_allowed`` stamp) survives so that
        an immediately following failure cannot originate requests faster
        than the rate limit allows.
        """
        state = self._discoveries.get(target)
        if state is not None:
            state.timer.cancel()
            state.attempts = 0

    def _drain_send_buffer(self, target: int) -> None:
        taken = self.send_buffer.take_for(target)
        for index, waiting in enumerate(taken):
            route = self._lookup(target, purpose="originate")
            if route is None:
                # No usable route after all (e.g. negative-cache filtered):
                # put everything back and let the discovery backoff retry.
                for unsent in taken[index:]:
                    evicted = self.send_buffer.add(unsent, self._now())
                    if evicted is not None:
                        self._drop(evicted, "send-buffer-overflow")
                self._start_discovery(target)
                return
            self._dispatch_with_route(waiting, route)

    # -- route discovery origination -----------------------------------------

    def _start_discovery(self, target: int) -> None:
        state = self._discoveries.get(target)
        if state is not None and state.timer.running:
            return
        if state is None:
            state = _Discovery(Timer(self._sim, self._discovery_timeout))
            self._discoveries[target] = state
        now = self._now()
        if now < state.next_allowed:
            # Rate limit: wake up when origination is permitted again.
            state.timer.start(state.next_allowed - now, target)
            return
        nonprop = self.config.nonpropagating_requests and state.attempts == 0
        ttl = 1 if nonprop else self.config.rreq_ttl
        self._send_request(target, ttl)
        wait = (
            self.config.nonprop_timeout
            if nonprop
            else self._discovery_backoff(state.attempts)
        )
        state.next_allowed = now + wait
        state.timer.start(wait, target)

    def _discovery_backoff(self, attempts: int) -> float:
        return min(
            self.config.discovery_backoff_base * (2 ** max(0, attempts - 1)),
            self.config.discovery_backoff_max,
        )

    def _discovery_timeout(self, target: int) -> None:
        state = self._discoveries.get(target)
        if state is None:
            return
        if self.cache.has_route_to(target) or not self.send_buffer.has_packets_for(target):
            state.attempts = 0
            self._drain_send_buffer(target)
            return
        state.attempts += 1
        self._send_request(target, self.config.rreq_ttl)
        backoff = self._discovery_backoff(state.attempts)
        state.next_allowed = self._now() + backoff
        state.timer.start(backoff, target)

    def _send_request(self, target: int, ttl: int) -> None:
        request = RouteRequest(
            origin=self.node_id,
            target=target,
            request_id=self._next_request_id(),
            record=[self.node_id],
        )
        piggyback = None
        if self.config.gratuitous_repair and self._pending_error is not None:
            piggyback = self._pending_error
            self._pending_error = None
        packet = Packet(
            kind=PacketKind.RREQ,
            src=self.node_id,
            dst=BROADCAST,
            uid=self.node.next_uid(),
            born=self._now(),
            ttl=ttl,
            info=request,
            piggyback=piggyback,
        )
        self._emit("dsr.rreq_sent", target=target, ttl=ttl)
        self.node.mac.enqueue(packet, BROADCAST)

    # ------------------------------------------------------------------
    # Route maintenance
    # ------------------------------------------------------------------

    def handle_unicast_success(self, packet: Packet, next_hop: int) -> None:
        """ACK received: nothing to maintain (hook kept for symmetry)."""

    def handle_unicast_failure(self, packet: Packet, next_hop: int) -> None:
        """Link-layer feedback: transmission to ``next_hop`` failed."""
        link: Link = (self.node_id, next_hop)
        if self._tracer.wants("dsr.link_break"):
            self._emit("dsr.link_break", link=link, pkt_kind=packet.kind.value)
        self._absorb_link_break(link)

        error = RouteError(
            link=link,
            detector=self.node_id,
            error_id=self._next_error_id(),
            target_source=packet.src,
        )
        if self.config.wider_error:
            self._broadcast_error(error)
        elif packet.src != self.node_id and packet.source_route is not None:
            self._unicast_error(packet, error)

        if packet.kind is PacketKind.DATA:
            self._recover_data_packet(packet)
        else:
            self._drop(packet, "control-tx-failed")

    def _absorb_link_break(self, link: Link) -> None:
        """Update local state for a link we've learned is broken."""
        now = self._now()
        lifetimes = self.cache.remove_link(link, now)
        for lifetime in lifetimes:
            self.policy.on_route_break(lifetime, now)
        self.policy.on_link_break(now)
        if self.negative is not None:
            self.negative.add(link, now)
        if self.break_history is not None:
            self.break_history.record_break(link, now)

    def _recover_data_packet(self, packet: Packet) -> None:
        """Salvage or re-route a data packet whose next hop died."""
        cfg = self.config
        if packet.src == self.node_id:
            self._pending_error = self._pending_error or RouteError(
                link=(self.node_id, packet.source_route[packet.route_index]),
                detector=self.node_id,
                error_id=self._next_error_id(),
            )
            route = self._lookup(packet.dst, purpose="originate")
            if route is not None:
                retry = packet.clone(source_route=route, route_index=0)
                self._transmit_source_routed(retry)
            else:
                self._buffer_and_discover(packet)
            return
        if cfg.salvaging and packet.salvaged < cfg.max_salvage_count:
            route = self._lookup(packet.dst, purpose="salvage")
            if route is not None:
                self._emit("dsr.salvage", dst=packet.dst, length=len(route))
                salvaged = packet.clone(
                    source_route=route,
                    route_index=0,
                    salvaged=packet.salvaged + 1,
                )
                self._transmit_source_routed(salvaged)
                return
        self._drop(packet, "no-route-to-salvage")

    def _send_route_error(self, packet: Packet, link: Link) -> None:
        """Report a quarantined/broken link found while holding ``packet``
        (negative-cache drop path).  Uses the same dissemination channel as
        route maintenance: broadcast under wider error, else unicast to the
        packet's source along the traversed prefix."""
        error = RouteError(
            link=link,
            detector=self.node_id,
            error_id=self._next_error_id(),
            target_source=packet.src,
        )
        if self.config.wider_error:
            self._broadcast_error(error)
            return
        if packet.src == self.node_id or packet.source_route is None:
            return
        back = list(reversed(packet.source_route[: packet.route_index + 1]))
        if len(back) < 2 or back[-1] != packet.src:
            return
        rerr = Packet(
            kind=PacketKind.RERR,
            src=self.node_id,
            dst=packet.src,
            uid=self.node.next_uid(),
            born=self._now(),
            source_route=back,
            route_index=0,
            info=error,
        )
        if self._tracer.wants("dsr.rerr_sent"):
            self._emit("dsr.rerr_sent", wide=False, link=link)
        self._transmit_source_routed(rerr)

    def _unicast_error(self, failed: Packet, error: RouteError) -> None:
        """Send the route error back to the failed packet's source along the
        traversed portion of its route (base DSR behaviour)."""
        route = failed.source_route
        assert route is not None
        traversed = route[: failed.route_index]  # route_index points at the dead hop
        back = list(reversed(traversed))
        if len(back) < 2 or back[-1] != failed.src:
            return
        packet = Packet(
            kind=PacketKind.RERR,
            src=self.node_id,
            dst=failed.src,
            uid=self.node.next_uid(),
            born=self._now(),
            source_route=back,
            route_index=0,
            info=error,
        )
        if self._tracer.wants("dsr.rerr_sent"):
            self._emit("dsr.rerr_sent", wide=False, link=error.link)
        self._transmit_source_routed(packet)

    def _broadcast_error(self, error: RouteError) -> None:
        """Wider error notification: MAC-broadcast the error."""
        self._seen_errors.insert((error.detector, error.error_id), self._now())
        packet = Packet(
            kind=PacketKind.RERR,
            src=self.node_id,
            dst=BROADCAST,
            uid=self.node.next_uid(),
            born=self._now(),
            info=error,
        )
        if self._tracer.wants("dsr.rerr_sent"):
            self._emit("dsr.rerr_sent", wide=True, link=error.link)
        self.node.mac.enqueue(packet, BROADCAST)

    def _handle_error(self, packet: Packet) -> None:
        error: RouteError = packet.info
        if packet.is_broadcast:
            self._handle_wide_error(packet, error)
            return
        self._absorb_error(error)
        if packet.dst == self.node_id:
            if self.config.gratuitous_repair:
                self._pending_error = error
            return
        self._forward(packet)

    def _handle_wide_error(self, packet: Packet, error: RouteError) -> None:
        key = (error.detector, error.error_id)
        if self._seen_errors.seen(key, self._now()):
            return
        self._seen_errors.insert(key, self._now())
        # Gate *before* cleaning: rebroadcast only if we cached the broken
        # link and actually forwarded traffic over it (paper section 3).
        should_relay = self.cache.contains_link(error.link) and self.cache.link_forwarded(
            error.link
        )
        self._absorb_error(error)
        if error.target_source == self.node_id and self.config.gratuitous_repair:
            self._pending_error = error
        if should_relay:
            relayed = packet.clone(src=self.node_id, uid=self.node.next_uid())
            if self._tracer.wants("dsr.rerr_relay"):
                self._emit("dsr.rerr_relay", link=error.link)
            self._broadcast_with_jitter(relayed)

    def _absorb_error(self, error: RouteError) -> None:
        if self._tracer.wants("dsr.rerr_recv"):
            self._emit("dsr.rerr_recv", link=error.link)
        self._absorb_link_break(error.link)

    # ------------------------------------------------------------------
    # Promiscuous listening
    # ------------------------------------------------------------------

    def handle_promiscuous(self, packet: Packet) -> None:
        if not self.config.promiscuous_listening:
            return
        if packet.kind is PacketKind.RERR and self.config.snoop_errors:
            # Extension: overheard unicast route errors also clean our cache
            # (base DSR per the paper leaves bystander caches untouched).
            self._absorb_error(packet.info)
            return
        route = packet.source_route
        if route is None or packet.route_index < 1 or packet.route_index >= len(route):
            return
        transmitter_index = packet.route_index - 1
        transmitter = route[transmitter_index]
        on_route = self._snoop_route(route, transmitter_index)
        if packet.kind is PacketKind.RREP:
            self._snoop_carried_route(packet.info.route, transmitter)
            if self.config.reply_storm_prevention:
                self._suppress_longer_replies(
                    packet.dst, packet.info.request_id, len(packet.info.route)
                )
        if on_route and packet.kind is PacketKind.DATA and self.config.route_shortening:
            self._maybe_shorten(packet, transmitter_index)

    def _snoop_route(self, route: Sequence[int], transmitter_index: int) -> bool:
        """Learn from an overheard source route; True if we are on it.

        If we are on the route we learn our own suffix/prefix; otherwise we
        chain ourselves through the transmitter we just overheard (we are
        demonstrably its neighbour) — the paper's "liberal snooping".
        """
        if self._learn_from_route(route):
            return True
        me = self.node_id
        self._cache_add((me, *route[transmitter_index:]))
        self._cache_add((me, *route[transmitter_index::-1]))
        return False

    def _snoop_carried_route(self, carried: Sequence[int], transmitter: int) -> None:
        """Learn from the route a snooped reply carries, entering it at the
        reply's transmitter if that node is on it."""
        if transmitter in carried:
            self._snoop_route(carried, carried.index(transmitter))
        else:
            self._learn_from_route(carried)

    def _maybe_shorten(self, packet: Packet, transmitter_index: int) -> None:
        """Gratuitous route shortening: we overheard a packet we appear
        later on the route of — tell the source about the shortcut."""
        route = packet.source_route
        assert route is not None
        me = self.node_id
        my_index = route.index(me)
        if my_index <= transmitter_index + 1:
            return  # no hop would be skipped
        shortened = list(route[: transmitter_index + 1]) + list(route[my_index:])
        key = (packet.src, tuple(shortened))
        if not self._grat_replies.check_and_insert(key, self._now()):
            return
        back = list(reversed(shortened[: shortened.index(me) + 1]))
        if len(back) < 2:
            return
        reply = RouteReply(route=shortened, request_id=0, gratuitous=True)
        grat = Packet(
            kind=PacketKind.RREP,
            src=me,
            dst=packet.src,
            uid=self.node.next_uid(),
            born=self._now(),
            source_route=back,
            route_index=0,
            info=reply,
        )
        if self._tracer.wants("dsr.grat_reply"):
            self._emit("dsr.grat_reply", src=packet.src, length=len(shortened))
        self._transmit_source_routed(grat)

    # ------------------------------------------------------------------
    # Periodic sweeps
    # ------------------------------------------------------------------

    def _expire_routes(self) -> None:
        timeout = self.policy.timeout(self._now())
        if timeout is None:
            return
        pruned = self.cache.prune_stale(self._now(), timeout)
        if pruned and self._tracer.wants("dsr.expired"):
            self._emit("dsr.expired", count=pruned, timeout=timeout)

    def _sweep_send_buffer(self) -> None:
        for expired in self.send_buffer.expire(self._now()):
            self._drop(expired, "send-buffer-timeout")
        if self.negative is not None:
            self.negative.purge(self._now())
        for dst in self.send_buffer.destinations():
            state = self._discoveries.get(dst)
            if state is None or not state.timer.running:
                self._start_discovery(dst)

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    def _drop(self, packet: Packet, reason: str) -> None:
        if self._tracer.wants("dsr.drop"):
            self._emit(
                "dsr.drop",
                reason=reason,
                pkt_kind=packet.kind.value,
                uid=packet.uid,
                src=packet.src,
                dst=packet.dst,
            )
