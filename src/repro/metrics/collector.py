"""Trace-driven metrics collection and the result record."""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Optional, Set, Tuple

from repro.sim.trace import TraceRecord, Tracer


class MetricsCollector:
    """Subscribes to the tracer and accumulates the paper's metrics.

    Attach before the run starts; call :meth:`finalize` after it ends to
    obtain an immutable :class:`SimulationResult`.

    ``reachability(src, dst) -> bool``, when provided, classifies each
    origination by ground-truth topology at send time, enabling the
    *reachable delivery fraction* — delivery measured only over packets a
    perfect router could have delivered.
    """

    def __init__(
        self,
        tracer: Tracer,
        reachability: Optional[Callable[[int, int], bool]] = None,
    ):
        self._reachability = reachability
        self.data_sent_reachable = 0
        self.data_received_reachable = 0
        self._reachable_uids: Set[int] = set()
        self.data_sent = 0
        self.data_received = 0
        self.duplicate_deliveries = 0
        self.delay_sum = 0.0
        self.bytes_received = 0

        self.mac_control_tx = 0  # RTS + CTS + ACK transmissions
        self.routing_tx = 0  # per-hop RREQ/RREP/RERR transmissions
        self.data_tx = 0  # per-hop data transmissions
        self.mac_failures = 0
        self.ifq_drops = 0

        self.rreq_sent = 0
        self.replies_received = 0
        self.good_replies = 0
        self.cache_replies_received = 0
        self.replies_sent_from_cache = 0
        self.replies_sent_from_target = 0
        self.cache_hits = 0
        self.invalid_cache_hits = 0
        self.link_breaks = 0
        self.salvages = 0
        self.drop_reasons: Counter = Counter()

        self._delivered_uids: Set[int] = set()

        tracer.subscribe("app.send", self._on_app_send)
        tracer.subscribe("app.recv", self._on_app_recv)
        tracer.subscribe("mac.tx", self._on_mac_tx)
        tracer.subscribe("mac.fail", self._on_mac_fail)
        tracer.subscribe("ifq.drop", self._on_ifq_drop)
        tracer.subscribe("dsr.rreq_sent", self._on_rreq_sent)
        tracer.subscribe("dsr.reply_recv", self._on_reply_recv)
        tracer.subscribe("dsr.reply_sent", self._on_reply_sent)
        tracer.subscribe("dsr.cache_use", self._on_cache_use)
        tracer.subscribe("dsr.link_break", self._on_link_break)
        tracer.subscribe("dsr.salvage", self._on_salvage)
        tracer.subscribe("dsr.drop", self._on_drop)

    # -- application ---------------------------------------------------------

    def _on_app_send(self, record: TraceRecord) -> None:
        self.data_sent += 1
        if self._reachability is not None:
            if self._reachability(record.fields["src"], record.fields["dst"]):
                self.data_sent_reachable += 1
                self._reachable_uids.add(record.fields["uid"])

    def _on_app_recv(self, record: TraceRecord) -> None:
        uid = record.fields["uid"]
        if uid in self._delivered_uids:
            self.duplicate_deliveries += 1
            return
        self._delivered_uids.add(uid)
        self.data_received += 1
        self.delay_sum += record.time - record.fields["born"]
        if uid in self._reachable_uids:  # read once per uid: the first delivery
            self._reachable_uids.remove(uid)
            self.data_received_reachable += 1

    # -- MAC -------------------------------------------------------------------

    def _on_mac_tx(self, record: TraceRecord) -> None:
        kind = record.fields["frame_kind"]
        if kind in ("rts", "cts", "ack"):
            self.mac_control_tx += 1
            return
        pkt_kind = record.fields.get("pkt_kind")
        if pkt_kind == "data":
            self.data_tx += 1
        elif pkt_kind is not None:
            self.routing_tx += 1

    def _on_mac_fail(self, record: TraceRecord) -> None:
        self.mac_failures += 1

    def _on_ifq_drop(self, record: TraceRecord) -> None:
        self.ifq_drops += 1

    # -- DSR ---------------------------------------------------------------------

    def _on_rreq_sent(self, record: TraceRecord) -> None:
        self.rreq_sent += 1

    def _on_reply_recv(self, record: TraceRecord) -> None:
        self.replies_received += 1
        if record.fields.get("from_cache"):
            self.cache_replies_received += 1
        if record.fields.get("valid"):
            self.good_replies += 1

    def _on_reply_sent(self, record: TraceRecord) -> None:
        if record.fields.get("from_cache"):
            self.replies_sent_from_cache += 1
        else:
            self.replies_sent_from_target += 1

    def _on_cache_use(self, record: TraceRecord) -> None:
        self.cache_hits += 1
        if record.fields.get("valid") is False:
            self.invalid_cache_hits += 1

    def _on_link_break(self, record: TraceRecord) -> None:
        self.link_breaks += 1

    def _on_salvage(self, record: TraceRecord) -> None:
        self.salvages += 1

    def _on_drop(self, record: TraceRecord) -> None:
        self.drop_reasons[record.fields["reason"]] += 1

    # -- result ------------------------------------------------------------------

    def finalize(
        self,
        duration: float,
        offered_load_kbps: Optional[float] = None,
        payload_bytes: int = 512,
    ) -> "SimulationResult":
        received_kbits = self.data_received * payload_bytes * 8 / 1000.0
        return SimulationResult(
            duration=duration,
            data_sent=self.data_sent,
            data_received=self.data_received,
            data_sent_reachable=self.data_sent_reachable if self._reachability else None,
            data_received_reachable=(
                self.data_received_reachable if self._reachability else None
            ),
            duplicate_deliveries=self.duplicate_deliveries,
            delay_sum=self.delay_sum,
            mac_control_tx=self.mac_control_tx,
            routing_tx=self.routing_tx,
            data_tx=self.data_tx,
            mac_failures=self.mac_failures,
            ifq_drops=self.ifq_drops,
            rreq_sent=self.rreq_sent,
            replies_received=self.replies_received,
            good_replies=self.good_replies,
            cache_replies_received=self.cache_replies_received,
            replies_sent_from_cache=self.replies_sent_from_cache,
            replies_sent_from_target=self.replies_sent_from_target,
            cache_hits=self.cache_hits,
            invalid_cache_hits=self.invalid_cache_hits,
            link_breaks=self.link_breaks,
            salvages=self.salvages,
            drop_reasons=dict(self.drop_reasons),
            offered_load_kbps=offered_load_kbps,
            throughput_kbps=received_kbits / duration if duration > 0 else 0.0,
        )


@dataclass(frozen=True)
class SimulationResult:
    """Everything a benchmark needs to print one row of a paper table."""

    duration: float
    data_sent: int
    data_received: int
    duplicate_deliveries: int
    delay_sum: float
    mac_control_tx: int
    routing_tx: int
    data_tx: int
    mac_failures: int
    ifq_drops: int
    rreq_sent: int
    replies_received: int
    good_replies: int
    cache_replies_received: int
    replies_sent_from_cache: int
    replies_sent_from_target: int
    cache_hits: int
    invalid_cache_hits: int
    link_breaks: int
    salvages: int
    drop_reasons: Dict[str, int] = field(default_factory=dict)
    offered_load_kbps: Optional[float] = None
    throughput_kbps: float = 0.0
    data_sent_reachable: Optional[int] = None
    data_received_reachable: Optional[int] = None

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "SimulationResult":
        """The record a ``{field name: value}`` payload describes, rebuilt
        in one step.

        A key set the constructor accepts (required fields ⊆ keys ⊆ fields)
        fills the instance dict in one update over the dataclass defaults;
        any other goes to the constructor, which raises its ``TypeError``.
        ``drop_reasons`` is copied, so the result does not alias ``payload``.
        """
        keys = payload.keys()
        if not (_REQUIRED_RESULT_FIELDS <= keys <= _RESULT_TEMPLATE.keys()):
            return cls(**payload)
        result = cls.__new__(cls)
        state = result.__dict__
        state.update(_RESULT_TEMPLATE)  # the constructor's order and defaults
        state.update(payload)
        state["drop_reasons"] = dict(state["drop_reasons"])
        return result

    # -- the paper's metrics ---------------------------------------------------

    @property
    def packet_delivery_fraction(self) -> float:
        """Delivered / originated data packets (paper metric i)."""
        if self.data_sent == 0:
            return 0.0
        return self.data_received / self.data_sent

    @property
    def average_delay(self) -> float:
        """Mean end-to-end delay over delivered packets, seconds (metric ii)."""
        if self.data_received == 0:
            return 0.0
        return self.delay_sum / self.data_received

    @property
    def normalized_overhead(self) -> float:
        """(routing + MAC control transmissions) per delivered packet
        (metric iii); counted per hop as in the paper."""
        if self.data_received == 0:
            return float("inf") if (self.routing_tx + self.mac_control_tx) else 0.0
        return (self.routing_tx + self.mac_control_tx) / self.data_received

    @property
    def reachable_delivery_fraction(self) -> Optional[float]:
        """Delivery fraction over topologically-deliverable packets only
        (None when the run did not track reachability)."""
        if self.data_sent_reachable is None:
            return None
        if self.data_sent_reachable == 0:
            return 0.0
        return (self.data_received_reachable or 0) / self.data_sent_reachable

    @property
    def pct_good_replies(self) -> float:
        """% of route replies received at sources with a fully live route."""
        if self.replies_received == 0:
            return 0.0
        return 100.0 * self.good_replies / self.replies_received

    @property
    def pct_invalid_cache_hits(self) -> float:
        """% of cache hits that produced an already-dead route."""
        if self.cache_hits == 0:
            return 0.0
        return 100.0 * self.invalid_cache_hits / self.cache_hits

    def to_dict(self) -> Dict[str, float]:
        """Flat dict of derived metrics + headline counters (for tables)."""
        return {
            "pdf": self.packet_delivery_fraction,
            "delay": self.average_delay,
            "overhead": self.normalized_overhead,
            "throughput_kbps": self.throughput_kbps,
            "good_replies_pct": self.pct_good_replies,
            "invalid_cache_pct": self.pct_invalid_cache_hits,
            "data_sent": float(self.data_sent),
            "data_received": float(self.data_received),
            "routing_tx": float(self.routing_tx),
            "mac_control_tx": float(self.mac_control_tx),
            "link_breaks": float(self.link_breaks),
        }


# The field plan :meth:`SimulationResult.from_payload` rebuilds by, resolved
# once beside the class so the two change together.  Every field is an
# immutable scalar except ``drop_reasons``, the one ``default_factory`` field,
# which the rebuild copies; tests/analysis/test_field_plans.py fails, naming
# the rebuild, when a field of another shape or another factory appears.
RESULT_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(SimulationResult)
)
_REQUIRED_RESULT_FIELDS: FrozenSet[str] = frozenset(
    f.name
    for f in dataclasses.fields(SimulationResult)
    if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
)
# Declaration order, as the constructor fills it; a required field's ``None``
# is always overwritten, because the payload holds every required field.
_RESULT_TEMPLATE: Dict[str, Any] = {
    f.name: (
        f.default
        if f.default is not dataclasses.MISSING
        else f.default_factory()
        if f.default_factory is not dataclasses.MISSING
        else None
    )
    for f in dataclasses.fields(SimulationResult)
}
