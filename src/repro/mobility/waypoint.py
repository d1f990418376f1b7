"""The random waypoint mobility model.

Each node starts at a uniformly random point in the rectangular field, picks
a uniformly random destination and a speed uniform in
``[min_speed, max_speed]``, travels there in a straight line, pauses for
``pause_time`` seconds, and repeats.  Varying the pause time varies effective
mobility — exactly the knob the paper's Fig. 2 sweeps: pause 0 is constant
motion, and pause >= simulation length is *not* a static network, because
every node starts on its first leg and rests only once it arrives.

Note on ``min_speed``: the classic formulation draws speed from U(0, 20]
m/s.  Speeds arbitrarily close to zero produce near-infinite travel times
(the well-known RWP speed-decay pathology), so we clamp at a small positive
``min_speed`` (default 0.1 m/s) — negligible for 500 s runs but numerically
safe.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import ConfigurationError
from repro.mobility.base import MobilityModel
from repro.mobility.trajectory import Segment, Trajectory


class RandomWaypointModel(MobilityModel):
    """Random-waypoint trajectories for ``num_nodes`` nodes.

    Parameters mirror the paper's setup: a ``width`` x ``height`` field,
    speeds uniform in ``[min_speed, max_speed]`` and a ``pause_time`` between
    legs.  Trajectories are generated up to ``duration`` seconds (plus one
    leg of slack) from the supplied generator, so a fixed seed gives a fixed
    scenario.
    """

    def __init__(
        self,
        num_nodes: int,
        width: float,
        height: float,
        duration: float,
        rng: np.random.Generator,
        max_speed: float = 20.0,
        min_speed: float = 0.1,
        pause_time: float = 0.0,
    ):
        if num_nodes <= 0:
            raise ConfigurationError("num_nodes must be positive")
        if width <= 0 or height <= 0:
            raise ConfigurationError("field dimensions must be positive")
        if not 0 < min_speed <= max_speed:
            raise ConfigurationError(
                f"need 0 < min_speed <= max_speed, got {min_speed}, {max_speed}"
            )
        if pause_time < 0:
            raise ConfigurationError("pause_time cannot be negative")

        self.width = width
        self.height = height
        self.max_speed = max_speed
        self.min_speed = min_speed
        self.pause_time = pause_time
        self.duration = duration

        trajectories = {
            node_id: self._generate(rng) for node_id in range(num_nodes)
        }
        super().__init__(trajectories)

    def _generate(self, rng: np.random.Generator) -> Trajectory:
        segments: List[Segment] = []
        t = 0.0
        x = float(rng.uniform(0.0, self.width))
        y = float(rng.uniform(0.0, self.height))
        # One leg of slack beyond the nominal duration so position queries at
        # exactly `duration` never run off the end of the trajectory.
        while t <= self.duration:
            dest_x = float(rng.uniform(0.0, self.width))
            dest_y = float(rng.uniform(0.0, self.height))
            speed = float(rng.uniform(self.min_speed, self.max_speed))
            dist = ((dest_x - x) ** 2 + (dest_y - y) ** 2) ** 0.5
            if dist < 1e-9:
                travel = 0.0
                vx = vy = 0.0
            else:
                travel = dist / speed
                vx = (dest_x - x) / travel
                vy = (dest_y - y) / travel
            segments.append(Segment(t0=t, x0=x, y0=y, vx=vx, vy=vy))
            t += travel
            x, y = dest_x, dest_y
            if self.pause_time > 0:
                segments.append(Segment(t0=t, x0=x, y0=y, vx=0.0, vy=0.0))
                t += self.pause_time
        # Terminal rest segment: whatever happens after the last generated
        # leg, the node stays put.
        segments.append(Segment(t0=t, x0=x, y0=y, vx=0.0, vy=0.0))
        return Trajectory(segments)
