"""Shared test scaffolding: small hand-built networks and protocol fakes."""

from __future__ import annotations

import contextlib
import signal
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.agent import DsrAgent
from repro.core.config import DsrConfig
from repro.mac.frames import Frame, FrameKind
from repro.mac.timing import MacTiming
from repro.metrics.collector import MetricsCollector
from repro.metrics.groundtruth import make_validity_oracle
from repro.mobility.base import MobilityModel
from repro.mobility.static import StaticModel
from repro.mobility.trajectory import Trajectory
from repro.net.node import Node
from repro.net.packet import Packet
from repro.phy.channel import Channel
from repro.phy.neighbors import NeighborCache
from repro.phy.propagation import DiskPropagation
from repro.phy.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer


@contextlib.contextmanager
def watchdog(seconds: int):
    """Fail instead of hanging the suite: after ``seconds`` a SIGALRM raises
    in the main thread, interrupting whatever it is blocked in."""

    def on_alarm(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class MiniNet:
    """A hand-wired network for protocol tests."""

    sim: Simulator
    tracer: Tracer
    channel: Channel
    neighbors: NeighborCache
    nodes: Dict[int, Node]
    metrics: MetricsCollector

    def agent(self, node_id: int) -> DsrAgent:
        return self.nodes[node_id].agent

    def records(self, kind: str) -> List:
        """Trace records of one kind collected since construction."""
        return [r for r in self._records if r.kind == kind]

    def __post_init__(self) -> None:
        self._records = []
        self.tracer.subscribe("*", self._records.append)


def build_static_net(
    positions: Sequence[Tuple[float, float]],
    dsr: Optional[DsrConfig] = None,
    rx_range: float = 250.0,
    cs_range: float = 550.0,
    seed: int = 7,
) -> MiniNet:
    """A network of stationary nodes at the given positions, all running DSR."""
    mobility = StaticModel(positions)
    return build_net_from_mobility(mobility, dsr=dsr, rx_range=rx_range, cs_range=cs_range, seed=seed)


def build_net_from_mobility(
    mobility: MobilityModel,
    dsr: Optional[DsrConfig] = None,
    rx_range: float = 250.0,
    cs_range: float = 550.0,
    seed: int = 7,
) -> MiniNet:
    """Wire a full stack over an arbitrary mobility model."""
    sim = Simulator()
    tracer = Tracer()
    metrics = MetricsCollector(tracer)
    propagation = DiskPropagation(rx_range=rx_range, cs_range=cs_range)
    neighbors = NeighborCache(mobility, propagation, quantum=0.05)
    channel = Channel(sim, neighbors, tracer=tracer)
    oracle = make_validity_oracle(sim, neighbors)
    nodes: Dict[int, Node] = {}
    for node_id in mobility.node_ids:
        agent = DsrAgent(
            node_id,
            sim,
            config=dsr or DsrConfig(),
            rng=np.random.default_rng(seed * 1000 + node_id),
            tracer=tracer,
            validity_oracle=oracle,
        )
        nodes[node_id] = Node(
            node_id,
            sim,
            channel,
            agent,
            mac_rng=np.random.default_rng(seed * 2000 + node_id),
            timing=MacTiming(),
            tracer=tracer,
        )
    return MiniNet(
        sim=sim,
        tracer=tracer,
        channel=channel,
        neighbors=neighbors,
        nodes=nodes,
        metrics=metrics,
    )


def moving_away_mobility(
    static_positions: Sequence[Tuple[float, float]],
    mover: int,
    depart_at: float,
    speed: float = 50.0,
) -> MobilityModel:
    """All nodes static except ``mover``, which departs straight up at
    ``depart_at`` — a deterministic way to break links mid-run."""
    from repro.mobility.trajectory import Segment

    trajectories = {}
    for node_id, (x, y) in enumerate(static_positions):
        if node_id == mover:
            trajectories[node_id] = Trajectory(
                [
                    Segment(t0=0.0, x0=x, y0=y, vx=0.0, vy=0.0),
                    Segment(t0=depart_at, x0=x, y0=y, vx=0.0, vy=speed),
                ]
            )
        else:
            trajectories[node_id] = Trajectory.stationary(x, y)
    return MobilityModel(trajectories)


class CountingMac:
    """A radio's MAC that only counts the frames it decodes."""

    def __init__(self):
        self.frames = 0

    def on_frame(self, frame) -> None:
        self.frames += 1

    def on_tx_complete(self, frame) -> None:
        pass

    def on_medium_change(self) -> None:
        pass


def lone_sender_deliveries(
    distances: Sequence[float],
    loss_model=None,
    rng: Optional[np.random.Generator] = None,
    frames: int = 200,
    rx_range: float = 250.0,
    cs_range: float = 550.0,
) -> List[int]:
    """Frames decoded by listeners ``distances`` metres from a lone sender
    at the origin, which sends ``frames`` frames that never overlap: the
    loss model through a real channel run, one count per listener."""
    sim = Simulator()
    mobility = StaticModel([(0.0, 0.0)] + [(float(d), 0.0) for d in distances])
    neighbors = NeighborCache(mobility, DiskPropagation(rx_range=rx_range, cs_range=cs_range))
    channel = Channel(sim, neighbors, loss_model=loss_model, rng=rng)
    radios = [Radio(node_id, channel) for node_id in mobility.node_ids]
    for radio in radios:
        radio.mac = CountingMac()
    sender = radios[0]
    for i in range(frames):
        sim.schedule(i * 0.01, sender.transmit, Frame(FrameKind.DATA, 0, 1), 0.001)
    sim.run()
    return [radio.mac.frames for radio in radios[1:]]


class FakeMac:
    """Captures what a routing agent hands to the MAC, without any radio."""

    def __init__(self):
        self.sent: List[Tuple[Packet, int]] = []

    def enqueue(self, packet: Packet, next_hop: int) -> bool:
        self.sent.append((packet, next_hop))
        return True

    def last(self) -> Tuple[Packet, int]:
        return self.sent[-1]


class FakeNode:
    """A minimal stand-in for :class:`repro.net.node.Node` in agent tests."""

    def __init__(self, node_id: int, sim: Simulator, agent: DsrAgent):
        self.node_id = node_id
        self.sim = sim
        self.mac = FakeMac()
        self.delivered: List[Packet] = []
        self._uid = 0
        self.agent = agent
        agent.attach(self)

    def next_uid(self) -> int:
        self._uid += 1
        return self.node_id * 1_000_000 + self._uid

    def deliver_to_app(self, packet: Packet) -> None:
        self.delivered.append(packet)


def make_agent(
    node_id: int,
    sim: Optional[Simulator] = None,
    dsr: Optional[DsrConfig] = None,
    tracer: Optional[Tracer] = None,
    oracle=None,
) -> Tuple[DsrAgent, FakeNode, Simulator]:
    """A DSR agent wired to fakes for isolated protocol-logic tests."""
    sim = sim or Simulator()
    agent = DsrAgent(
        node_id,
        sim,
        config=dsr or DsrConfig(),
        rng=np.random.default_rng(node_id + 1),
        tracer=tracer or Tracer(),
        validity_oracle=oracle,
    )
    node = FakeNode(node_id, sim, agent)
    return agent, node, sim
