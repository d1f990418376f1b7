"""Unit tests for the shared channel and half-duplex radios.

A recording stub stands in for the MAC so the tests can observe exactly
which frames were decoded, corrupted, or sensed.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.errors import SimulationError
from repro.mac.frames import Frame, FrameKind
from repro.mobility.static import StaticModel
from repro.phy.channel import Channel
from repro.phy.neighbors import NeighborCache
from repro.phy.propagation import DiskPropagation
from repro.phy.radio import Radio
from repro.sim.engine import Simulator


class RecordingMac:
    def __init__(self):
        self.frames: List[Frame] = []
        self.completed: List[Frame] = []
        self.medium_changes = 0

    def on_frame(self, frame: Frame) -> None:
        self.frames.append(frame)

    def on_tx_complete(self, frame: Frame) -> None:
        self.completed.append(frame)

    def on_medium_change(self) -> None:
        self.medium_changes += 1


def build(positions):
    sim = Simulator()
    mobility = StaticModel(positions)
    neighbors = NeighborCache(mobility, DiskPropagation(rx_range=250.0, cs_range=550.0))
    channel = Channel(sim, neighbors)
    radios = {}
    macs = {}
    for node_id in mobility.node_ids:
        radio = Radio(node_id, channel)
        mac = RecordingMac()
        radio.mac = mac
        radios[node_id] = radio
        macs[node_id] = mac
    return sim, channel, radios, macs


def _frame(src, dst):
    return Frame(FrameKind.DATA, src, dst)


def test_in_range_reception():
    sim, channel, radios, macs = build([(0.0, 0.0), (200.0, 0.0)])
    radios[0].transmit(_frame(0, 1), 0.001)
    sim.run()
    assert len(macs[1].frames) == 1
    assert macs[0].completed  # sender's completion callback fired


def test_out_of_range_no_reception():
    sim, channel, radios, macs = build([(0.0, 0.0), (300.0, 0.0)])
    radios[0].transmit(_frame(0, 1), 0.001)
    sim.run()
    assert macs[1].frames == []


def test_carrier_sense_without_decode():
    """300 m: sensed (busy transitions) but not decodable."""
    sim, channel, radios, macs = build([(0.0, 0.0), (300.0, 0.0)])
    radios[0].transmit(_frame(0, 1), 0.001)
    sim.run()
    assert macs[1].frames == []
    assert macs[1].medium_changes >= 2  # busy then idle


def test_collision_corrupts_both_frames():
    # Nodes 0 and 2 both in range of 1; simultaneous transmissions collide.
    sim, channel, radios, macs = build([(0.0, 0.0), (200.0, 0.0), (400.0, 0.0)])
    sim.schedule(0.0, radios[0].transmit, _frame(0, 1), 0.001)
    sim.schedule(0.0005, radios[2].transmit, _frame(2, 1), 0.001)
    sim.run()
    assert macs[1].frames == []


def test_non_overlapping_frames_both_received():
    sim, channel, radios, macs = build([(0.0, 0.0), (200.0, 0.0), (400.0, 0.0)])
    sim.schedule(0.0, radios[0].transmit, _frame(0, 1), 0.001)
    sim.schedule(0.002, radios[2].transmit, _frame(2, 1), 0.001)
    sim.run()
    assert len(macs[1].frames) == 2


def test_hidden_terminal_collision():
    """0 and 2 cannot sense each other (600 m apart with cs 550) but both
    reach 1 — the classic hidden-terminal corruption."""
    sim, channel, radios, macs = build([(0.0, 0.0), (300.0, 0.0), (600.0, 0.0)])
    # Use rx 350 so both ends decode at 1 individually.
    mobility = StaticModel([(0.0, 0.0), (300.0, 0.0), (600.0, 0.0)])
    neighbors = NeighborCache(mobility, DiskPropagation(rx_range=350.0, cs_range=550.0))
    sim = Simulator()
    channel = Channel(sim, neighbors)
    radios = {i: Radio(i, channel) for i in range(3)}
    macs = {}
    for i, radio in radios.items():
        macs[i] = RecordingMac()
        radio.mac = macs[i]
    sim.schedule(0.0, radios[0].transmit, _frame(0, 1), 0.001)
    sim.schedule(0.0002, radios[2].transmit, _frame(2, 1), 0.001)
    sim.run()
    assert macs[1].frames == []  # both corrupted at the middle node


def test_half_duplex_receiver_transmitting_misses_frame():
    sim, channel, radios, macs = build([(0.0, 0.0), (200.0, 0.0)])
    sim.schedule(0.0, radios[1].transmit, _frame(1, 0), 0.002)
    sim.schedule(0.0005, radios[0].transmit, _frame(0, 1), 0.001)
    sim.run()
    # Node 1 was transmitting while 0's frame arrived: no decode at 1.
    assert all(frame.src != 0 for frame in macs[1].frames)


def test_double_transmit_raises():
    sim, channel, radios, macs = build([(0.0, 0.0), (200.0, 0.0)])
    radios[0].transmit(_frame(0, 1), 0.001)
    with pytest.raises(SimulationError):
        radios[0].transmit(_frame(0, 1), 0.001)


def test_busy_flag_follows_energy():
    sim, channel, radios, macs = build([(0.0, 0.0), (200.0, 0.0)])
    assert not radios[1].busy
    radios[0].transmit(_frame(0, 1), 0.001)
    # Immediately after the call, energy has started at node 1.
    assert radios[1].busy
    sim.run()
    assert not radios[1].busy


def test_broadcast_frame_reaches_all_in_range():
    sim, channel, radios, macs = build(
        [(0.0, 0.0), (200.0, 0.0), (200.0, 100.0), (900.0, 0.0)]
    )
    from repro.net.addresses import BROADCAST

    radios[0].transmit(Frame(FrameKind.DATA, 0, BROADCAST), 0.001)
    sim.run()
    assert len(macs[1].frames) == 1
    assert len(macs[2].frames) == 1
    assert macs[3].frames == []


def test_duplicate_radio_attachment_rejected():
    sim, channel, radios, macs = build([(0.0, 0.0), (200.0, 0.0)])
    with pytest.raises(SimulationError):
        Radio(0, channel)


def test_callback_sequence_of_one_frame_over_a_mixed_plan():
    """One frame, every kind of listener, in carrier-sense neighbour order:
    in-range and attentive (1), sensed-only and attentive (2), the same two
    with a MAC that declared itself idle (3, 4), and in range but already
    hearing a hidden sender (5 hears 6, which 0 cannot sense)."""
    log = []

    class LoggingMac:
        def __init__(self, node_id):
            self.node_id = node_id

        def on_medium_change(self):
            log.append((self.node_id, "medium"))

        def on_frame(self, frame):
            log.append((self.node_id, "frame", frame.src))

        def on_tx_complete(self, frame):
            log.append((self.node_id, "tx_complete"))

    class EifsMac(LoggingMac):
        def on_corrupt_frame(self):
            log.append((self.node_id, "corrupt"))

    positions = [
        (0.0, 0.0),
        (200.0, 0.0),
        (400.0, 0.0),
        (0.0, 200.0),
        (0.0, 400.0),
        (-200.0, 0.0),
        (-700.0, 0.0),
    ]
    sim = Simulator()
    mobility = StaticModel(positions)
    neighbors = NeighborCache(mobility, DiskPropagation(rx_range=250.0, cs_range=550.0))
    channel = Channel(sim, neighbors)
    radios = {i: Radio(i, channel) for i in mobility.node_ids}
    for i, radio in radios.items():
        radio.mac = EifsMac(i) if i == 5 else LoggingMac(i)
    radios[3].mac_idle = radios[4].mac_idle = True

    sim.schedule(0.0, radios[6].transmit, _frame(6, 5), 0.010)
    sim.schedule(0.001, radios[0].transmit, _frame(0, 1), 0.002)
    sim.run(until=0.0005)
    assert log == [(6, "medium"), (5, "medium")]
    del log[:]

    sim.run(until=0.005)
    assert log == [
        # start: the sender, then its listeners in plan order; 3 and 4 are
        # idle and 5 was busy already, so none of them is told
        (0, "medium"),
        (1, "medium"),
        (2, "medium"),
        # end: listeners first, in plan order ...
        (1, "medium"),
        (1, "frame", 0),
        (2, "medium"),
        (3, "frame", 0),  # an idle MAC still gets its frames
        (5, "corrupt"),  # overlapped by 6's energy; medium still busy
        # ... then the sender
        (0, "medium"),
        (0, "tx_complete"),
    ]
    assert not radios[4].busy and radios[5].busy


def test_end_of_frame_callbacks_come_in_ascending_node_order():
    """Decodable (1, 3, 5) and sensed-only (2, 4) listeners alternate by
    node id around sender 0, every MAC attentive.  At the frame's end each
    is told in ascending node order, the two kinds interleaved: the
    free-medium callbacks arm defer timers, so that order is the tie-break
    between stations leaving the same busy period — visiting decodable
    listeners first moves every golden digest."""
    log = []

    class LoggingMac:
        def __init__(self, node_id):
            self.node_id = node_id

        def on_medium_change(self):
            log.append((self.node_id, "medium"))

        def on_frame(self, frame):
            log.append((self.node_id, "frame"))

        def on_tx_complete(self, frame):
            log.append((self.node_id, "tx_complete"))

    positions = [(0.0, 0.0), (100.0, 0.0), (300.0, 0.0), (-200.0, 0.0), (-400.0, 0.0), (240.0, 0.0)]
    sim, channel, radios, macs = build(positions)
    for node_id, radio in radios.items():
        radio.mac = LoggingMac(node_id)
    radios[0].transmit(_frame(0, 1), 0.002)
    assert [entry[0] for entry in log] == [0, 1, 2, 3, 4, 5]
    del log[:]
    sim.run()
    assert log == [
        (1, "medium"),
        (1, "frame"),
        (2, "medium"),
        (3, "medium"),
        (3, "frame"),
        (4, "medium"),
        (5, "medium"),
        (5, "frame"),
        (0, "medium"),
        (0, "tx_complete"),
    ]
