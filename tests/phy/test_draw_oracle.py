"""Draw oracle: one ``rng.random(k)`` per frame against one draw per listener.

``Channel.transmit`` takes a frame's loss uniforms in a single call, for the
draw rows its plan lists, and compares them with the plan's probability
column.  The oracle is the rule it replaced, kept here verbatim: walk the
listeners in plan order and, for each one in receive range, take
``delivery_probability(distance)`` and — unless that is 1 — one scalar
``rng.random()``.  Over seeded multi-frame runs on a moving network, every
listener's receivable flag (``tx in radio.receptions`` right after the
frame starts) and the fading generator's final state must match a second
generator of the same seed driven by the oracle, for both backends, with and
without capture, for a grey zone (certain listeners draw nothing) and for
flat link loss (every in-range listener draws).

It bites: reversing the order of a frame's draws or drawing for a listener
out of receive range fails all 16 cases below; drawing for a listener whose
probability is 1 fails the 8 grey-zone ones (flat link loss has no such
listener).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mac.frames import Frame, FrameKind
from repro.mobility.waypoint import RandomWaypointModel
from repro.net.addresses import BROADCAST
from repro.phy.channel import Channel
from repro.phy.neighbors import NeighborCache
from repro.phy.profiles import CaptureModel, ProbabilisticReception
from repro.phy.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams

from tests.helpers import CountingMac
from tests.phy.test_plan_oracle import PROPAGATION, _oracle_plan

MODELS = {
    # Certain inside 150 m: those listeners must cost no draw.
    "grey-zone": ProbabilisticReception(
        rx_range=250.0, reliable_fraction=0.6, edge_delivery_probability=0.1
    ),
    # lossy30_static's shape: no ramp, every in-range listener draws.
    "link-loss": ProbabilisticReception(rx_range=250.0, base_delivery=0.8),
}


def _oracle_flags(plan, loss, rng):
    """The per-listener rule ``Channel.transmit`` had, verbatim but for the
    loss model's ``delivered`` written out in place."""
    flags = []
    for _radio, receivable, distance, _power in plan:
        if receivable:
            # One draw per in-range listener, in plan order.
            probability = loss.delivery_probability(distance)
            receivable = True if probability >= 1.0 else bool(rng.random() < probability)
        flags.append(receivable)
    return flags


def _mobility(seed):
    return RandomWaypointModel(
        num_nodes=30,
        width=1500.0,
        height=600.0,
        duration=12.0,
        rng=np.random.default_rng(seed),
        max_speed=30.0,
        pause_time=0.0,
    )


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize(
    "capture", [None, CaptureModel(threshold_db=6.0)], ids=["lossy", "lossy+capture"]
)
@pytest.mark.parametrize("index", ["allpairs", "grid"])
@pytest.mark.parametrize("seed", [1, 7])
def test_one_draw_call_per_frame_is_the_per_listener_rule(seed, index, capture, model):
    loss = MODELS[model]
    sim = Simulator()
    channel = Channel(
        sim,
        NeighborCache(_mobility(seed), PROPAGATION, quantum=0.05, index=index),
        loss_model=loss,
        rng=RandomStreams(seed).stream("fading"),
        capture=capture,
    )
    reference = NeighborCache(_mobility(seed), PROPAGATION, quantum=0.05, index="allpairs")
    oracle_rng = RandomStreams(seed).stream("fading")
    for node_id in channel.neighbors.node_ids:
        Radio(node_id, channel).mac = CountingMac()
    seen = {"frames": 0, "draws": 0, "certain": 0, "out_of_range": 0}

    def send(sender_id):
        sender = channel.radio(sender_id)
        if sender.sending is not None:
            return
        plan = _oracle_plan(channel, reference, sender_id, sim.now)
        expected = _oracle_flags(plan, loss, oracle_rng)
        sender.transmit(Frame(FrameKind.DATA, sender_id, BROADCAST), 0.004)
        tx = sender.sending
        assert [tx in radio.receptions for radio, *_ in plan] == expected
        seen["frames"] += 1
        for _radio, in_rx, distance, _power in plan:
            if not in_rx:
                seen["out_of_range"] += 1
            elif loss.delivery_probability(distance) < 1.0:
                seen["draws"] += 1
            else:
                seen["certain"] += 1

    # Frames overlap (half of them start while another is on the air) and
    # cross quanta, so plans are rebuilt and listeners move between zones.
    schedule = np.random.default_rng(seed + 100)
    for t, sender_id in zip(
        np.sort(schedule.uniform(0.0, 10.0, 1500)), schedule.integers(0, 30, 1500)
    ):
        sim.schedule_at(float(t), send, int(sender_id))
    sim.run()

    assert channel._rng.bit_generator.state == oracle_rng.bit_generator.state
    assert seen["frames"] > 1000 and seen["draws"] > 1000 and seen["out_of_range"] > 1000
    if model == "grey-zone":
        assert seen["certain"] > 1000
