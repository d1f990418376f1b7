"""``Radio.energy`` against a count recomputed from the transmission schedule.

The channel keeps one counter per radio instead of deriving carrier sense
from three pieces of state.  Here random static topologies carry random
overlapping transmissions under the plain, a lossy and a capture profile;
between frame edges the counter must equal what the schedule alone says the
node hears (every in-flight frame whose sender has it as a carrier-sense
neighbour, plus its own), and it must return to zero.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mac.frames import Frame, FrameKind
from repro.mobility.static import StaticModel
from repro.phy.channel import Channel
from repro.phy.neighbors import NeighborCache
from repro.phy.profiles import CaptureModel, ProbabilisticReception
from repro.phy.propagation import DiskPropagation
from repro.phy.radio import Radio
from repro.sim.engine import Simulator

MS = 1e-3


class _ListeningMac:
    """Never idle, so every transition reaches it; checks the ``busy``
    property against the counter at each one."""

    def __init__(self, radio):
        self.radio = radio

    def on_medium_change(self):
        assert self.radio.busy == (self.radio.energy > 0)

    def on_frame(self, frame):
        pass

    def on_tx_complete(self, frame):
        pass


def _channel(profile, sim, neighbors):
    if profile == "lossy":
        return Channel(
            sim,
            neighbors,
            loss_model=ProbabilisticReception(rx_range=250.0, reliable_fraction=0.5),
            rng=np.random.default_rng(5),
        )
    if profile == "capture":
        capture = CaptureModel(threshold_db=10.0, path_loss_exponent=2.8)
        return Channel(sim, neighbors, capture=capture)
    return Channel(sim, neighbors)


# Frames start on whole milliseconds and last n + 0.5 ms, so a probe at
# k + 0.25 ms never coincides with a frame edge.
_positions = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1400.0),
        st.floats(min_value=0.0, max_value=300.0),
    ),
    min_size=2,
    max_size=8,
)
_frames = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),  # sender, modulo the node count
        st.integers(min_value=0, max_value=30),  # start, ms
        st.integers(min_value=0, max_value=8),  # airtime - 0.5, ms
    ),
    max_size=25,
)


@given(
    positions=_positions,
    frames=_frames,
    profile=st.sampled_from(["plain", "lossy", "capture"]),
)
# 0 and 2 are hidden from each other (600 m) and both reach 1, which sends
# while it hears them; 3 decodes 2 only.
@example(
    positions=[(0.0, 0.0), (300.0, 0.0), (600.0, 0.0), (800.0, 0.0)],
    frames=[(0, 0, 6), (2, 1, 6), (1, 2, 2), (2, 9, 0), (0, 9, 0)],
    profile="plain",
)
@settings(max_examples=150, deadline=None)
def test_energy_counter_matches_the_schedule(positions, frames, profile):
    sim = Simulator()
    neighbors = NeighborCache(StaticModel(positions), DiskPropagation(250.0, 550.0))
    channel = _channel(profile, sim, neighbors)
    radios = [Radio(node_id, channel) for node_id in range(len(positions))]
    for radio in radios:
        radio.mac = _ListeningMac(radio)

    # Half duplex: drop a frame that would start before its sender's last ended.
    schedule = []
    free_at = {}
    for sender, start_ms, extra_ms in sorted(frames, key=lambda f: f[1]):
        sender %= len(radios)
        start, airtime = start_ms * MS, (extra_ms + 0.5) * MS
        if start < free_at.get(sender, 0.0):
            continue
        free_at[sender] = start + airtime
        schedule.append((sender, start, start + airtime))
        frame = Frame(FrameKind.DATA, sender, (sender + 1) % len(radios))
        sim.schedule_at(start, radios[sender].transmit, frame, airtime)
    hears = {s: set(neighbors.cs_neighbors(s, 0.0)) for s in range(len(radios))}

    def probe(now):
        for node, radio in enumerate(radios):
            in_flight = [(s, a, b) for s, a, b in schedule if a < now < b]
            expected = sum(node in hears[s] for s, _, _ in in_flight)
            expected += any(s == node for s, _, _ in in_flight)
            assert radio.energy == expected, (now, node, in_flight)
            assert radio.busy == (expected > 0)
            assert radio.transmitting == any(s == node for s, _, _ in in_flight)

    for k in range(40):
        at = (k + 0.25) * MS
        sim.schedule_at(at, probe, at)
    sim.run()

    for radio in radios:
        assert radio.energy == 0
        assert radio.receptions == {}
        assert radio.heard_power == {}
        assert radio.sending is None
