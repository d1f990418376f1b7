"""Assemble and run complete simulations from a :class:`ScenarioConfig`.

The builder guarantees the paper's methodological requirement that
*identical mobility and traffic scenarios are used across all protocol
variations*: mobility and traffic draw from seed streams named only by the
scenario seed, never by protocol settings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.agent import DsrAgent
from repro.mac.timing import MacTiming
from repro.metrics.collector import MetricsCollector, SimulationResult
from repro.metrics.groundtruth import make_validity_oracle
from repro.mobility.base import MobilityModel
from repro.mobility.waypoint import RandomWaypointModel
from repro.net.node import Node
from repro.phy.channel import Channel
from repro.phy.neighbors import NeighborCache
from repro.phy.profiles import build_loss_model, resolve_profile
from repro.phy.propagation import DiskPropagation
from repro.scenarios.config import ScenarioConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.trace import Tracer
from repro.traffic.cbr import CbrSource
from repro.traffic.sessions import Session, random_sessions
from repro.traffic.sink import Sink


@dataclass
class SimulationHandle:
    """A fully wired simulation, ready to run (or already run)."""

    config: ScenarioConfig
    sim: Simulator
    tracer: Tracer
    neighbors: NeighborCache
    nodes: Dict[int, Node]
    sessions: List[Session]
    sources: List[CbrSource]
    sinks: List[Sink]
    metrics: MetricsCollector
    mobility: MobilityModel = field(repr=False, default=None)
    channel: Channel = field(repr=False, default=None)

    @property
    def energy(self):
        """The channel's :class:`~repro.phy.energy.EnergyLedger`, if the
        scenario enabled ``track_energy`` (else None)."""
        return self.channel.energy if self.channel is not None else None

    def run(self) -> SimulationResult:
        """Run to the configured duration and return the metrics."""
        self.sim.run(until=self.config.duration)
        return self.metrics.finalize(
            duration=self.config.duration,
            offered_load_kbps=self.config.offered_load_kbps,
            payload_bytes=self.config.payload_bytes,
        )


def _make_mobility(config: ScenarioConfig, streams: RandomStreams):
    rng = streams.stream("mobility")
    if config.mobility_model == "waypoint":
        return RandomWaypointModel(
            num_nodes=config.num_nodes,
            width=config.field_width,
            height=config.field_height,
            duration=config.duration,
            rng=rng,
            max_speed=config.max_speed,
            min_speed=config.min_speed,
            pause_time=config.pause_time,
        )
    if config.mobility_model == "random_walk":
        from repro.mobility.random_walk import RandomWalkModel

        return RandomWalkModel(
            num_nodes=config.num_nodes,
            width=config.field_width,
            height=config.field_height,
            duration=config.duration,
            rng=rng,
            max_speed=config.max_speed,
            min_speed=config.min_speed,
            epoch=config.walk_epoch,
        )
    if config.mobility_model == "gauss_markov":
        from repro.mobility.gauss_markov import GaussMarkovModel

        return GaussMarkovModel(
            num_nodes=config.num_nodes,
            width=config.field_width,
            height=config.field_height,
            duration=config.duration,
            rng=rng,
            mean_speed=config.max_speed / 2.0,
        )
    from repro.mobility.rpgm import ReferencePointGroupModel

    return ReferencePointGroupModel(
        num_nodes=config.num_nodes,
        width=config.field_width,
        height=config.field_height,
        duration=config.duration,
        rng=rng,
        num_groups=config.rpgm_groups,
        max_speed=config.max_speed,
        pause_time=config.pause_time,
    )


def _make_agent(config: ScenarioConfig, node_id: int, sim, streams, tracer, oracle):
    if config.protocol == "dsr":
        return DsrAgent(
            node_id,
            sim,
            config=config.dsr,
            rng=streams.stream("dsr", f"node-{node_id}"),
            tracer=tracer,
            validity_oracle=oracle,
        )
    # Imported lazily: the baseline is optional machinery.
    from repro.baselines.aodv.agent import AodvAgent

    return AodvAgent(
        node_id,
        sim,
        rng=streams.stream("aodv", f"node-{node_id}"),
        tracer=tracer,
        validity_oracle=oracle,
    )


def build_simulation(config: ScenarioConfig) -> SimulationHandle:
    """Wire up every layer for ``config`` without running anything."""
    sim = Simulator()
    tracer = Tracer()
    streams = RandomStreams(config.seed)

    mobility = _make_mobility(config, streams)
    # The radio profile is the single source of truth for the physical
    # layer: geometry (and therefore the spatial index's grid pitch), loss
    # shape, capture, MAC timing and energy draws all derive from it.  For
    # the default "wavelan" profile every derived object below equals the
    # pre-profile construction field for field — the back-compat contract
    # that keeps golden metrics and cache entries bit-identical.
    profile = resolve_profile(config)
    propagation = DiskPropagation(
        rx_range=profile.rx_range, cs_range=profile.cs_range
    )
    neighbors = NeighborCache(
        mobility,
        propagation,
        quantum=config.neighbor_quantum,
        index=config.neighbor_index,
    )
    loss_model = build_loss_model(profile, config)
    energy = None
    if config.track_energy:
        from repro.phy.energy import EnergyLedger, EnergyModel

        energy = EnergyLedger(EnergyModel.from_profile(profile))
    channel = Channel(
        sim,
        neighbors,
        tracer=tracer,
        loss_model=loss_model,
        rng=streams.stream("fading"),
        energy=energy,
        capture=profile.capture(),
    )
    oracle = make_validity_oracle(sim, neighbors)
    reachability = None
    if config.track_reachability:
        def reachability(src: int, dst: int) -> bool:
            return neighbors.reachable(src, dst, sim.now)

    metrics = MetricsCollector(tracer, reachability=reachability)

    # Immutable, so every node shares one.
    timing = MacTiming.from_profile(profile, use_eifs=config.use_eifs)
    nodes: Dict[int, Node] = {}
    for node_id in range(config.num_nodes):
        agent = _make_agent(config, node_id, sim, streams, tracer, oracle)
        nodes[node_id] = Node(
            node_id,
            sim,
            channel,
            agent,
            mac_rng=streams.stream("mac", f"node-{node_id}"),
            timing=timing,
            tracer=tracer,
            queue_capacity=config.ifq_capacity,
        )

    sessions = random_sessions(
        config.num_nodes,
        config.num_sessions,
        streams.stream("traffic"),
        start_window=config.start_window,
    )
    if config.traffic_type == "tcp":
        from repro.traffic.tcp import TcpSink, TcpSource

        sinks = [
            TcpSink(nodes[session.dst], flow=flow)
            for flow, session in enumerate(sessions, start=1)
        ]
        sources = [
            TcpSource(
                sim,
                nodes[session.src],
                sink,
                dst=session.dst,
                flow=flow,
                mss_bytes=config.payload_bytes,
                start=session.start,
                tracer=tracer,
            )
            for flow, (session, sink) in enumerate(zip(sessions, sinks), start=1)
        ]
    else:
        sources = [
            CbrSource(
                sim,
                nodes[session.src],
                session.dst,
                rate=config.packet_rate,
                payload_bytes=config.payload_bytes,
                start=session.start,
            )
            for session in sessions
        ]
        sinks = [Sink(nodes[session.dst]) for session in sessions]

    return SimulationHandle(
        config=config,
        sim=sim,
        tracer=tracer,
        neighbors=neighbors,
        nodes=nodes,
        sessions=sessions,
        sources=sources,
        sinks=sinks,
        metrics=metrics,
        mobility=mobility,
        channel=channel,
    )


def run_scenario(config: ScenarioConfig) -> SimulationResult:
    """Build and run one scenario end to end."""
    return build_simulation(config).run()
