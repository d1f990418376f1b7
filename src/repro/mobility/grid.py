"""Deterministic node layouts for tests and examples."""

from __future__ import annotations

from typing import List, Tuple

Point = Tuple[float, float]


def chain_positions(num_nodes: int, spacing: float) -> List[Point]:
    """Nodes in a straight line, ``spacing`` metres apart.

    With spacing just under the radio range this forms an n-hop chain —
    the canonical topology for exercising multi-hop forwarding.
    """
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    return [(i * spacing, 0.0) for i in range(num_nodes)]


def grid_positions(rows: int, cols: int, spacing: float) -> List[Point]:
    """Nodes on a ``rows`` x ``cols`` grid, ``spacing`` metres apart."""
    if rows <= 0 or cols <= 0:
        raise ValueError("rows and cols must be positive")
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    return [
        (c * spacing, r * spacing) for r in range(rows) for c in range(cols)
    ]

