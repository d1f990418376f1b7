"""Scenario characterisation: connectivity and link dynamics over time.

The paper's conclusions are parameterised by how fast links churn; these
helpers measure that directly from a mobility model, without running any
protocol:

* :func:`link_lifetimes` — durations of link up-periods (the physical
  quantity the route-expiry timeout must track);
* :func:`average_degree` — density of the scenario;
* :func:`average_path_length` — hop distance between connected pairs.

EXPERIMENTS.md uses these to justify how the scaled scenario's optimal
timeout relates to the paper's (the timeout tracks the link lifetime
scale).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Tuple

import numpy as np

from repro.mobility.base import MobilityModel

Link = Tuple[int, int]


def _adjacency(mobility: MobilityModel, rx_range: float, t: float):
    ids = mobility.node_ids
    positions = np.array([mobility.position(node_id, t) for node_id in ids])
    deltas = positions[:, None, :] - positions[None, :, :]
    distances = np.sqrt((deltas**2).sum(axis=2))
    adjacency = distances <= rx_range
    np.fill_diagonal(adjacency, False)
    return ids, adjacency


def link_lifetimes(
    mobility: MobilityModel,
    rx_range: float,
    duration: float,
    step: float = 0.5,
) -> List[float]:
    """Durations of contiguous link up-periods, sampled every ``step`` s.

    Periods still up at ``duration`` are excluded (right-censored data
    would bias the mean upward for short runs).
    """
    ids = mobility.node_ids
    up_since: Dict[Link, float] = {}
    lifetimes: List[float] = []
    times = np.arange(0.0, duration + step / 2, step)
    for t in times:
        _, adjacency = _adjacency(mobility, rx_range, float(t))
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                link = (ids[i], ids[j])
                if adjacency[i, j]:
                    up_since.setdefault(link, float(t))
                elif link in up_since:
                    lifetimes.append(float(t) - up_since.pop(link))
    return lifetimes


def average_degree(mobility: MobilityModel, rx_range: float, t: float) -> float:
    """Mean number of neighbours per node at time ``t``."""
    ids, adjacency = _adjacency(mobility, rx_range, t)
    if not ids:
        return 0.0
    return float(adjacency.sum()) / len(ids)


def average_path_length(
    mobility: MobilityModel, rx_range: float, t: float
) -> float:
    """Mean hop count over connected node pairs at time ``t`` (BFS)."""
    ids, adjacency = _adjacency(mobility, rx_range, t)
    n = len(ids)
    total = count = 0
    for start in range(n):
        dist = [-1] * n
        dist[start] = 0
        frontier = deque([start])
        while frontier:
            node = frontier.popleft()
            for neighbor in np.flatnonzero(adjacency[node]):
                if dist[neighbor] < 0:
                    dist[neighbor] = dist[node] + 1
                    frontier.append(int(neighbor))
        for other in range(start + 1, n):
            if dist[other] > 0:
                total += dist[other]
                count += 1
    return total / count if count else 0.0
