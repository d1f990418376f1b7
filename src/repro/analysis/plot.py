"""Terminal line charts for sweep results.

The benchmark harness runs offline (no matplotlib); these renderers draw
figure-shaped ASCII charts so the paper's curve shapes — crossovers, U
curves, convergence at high pause times — are visible straight from the
bench output.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


def render_chart(
    series: Dict[str, Sequence[float]],
    x_labels: Sequence[str],
    height: int = 12,
    width: int = 60,
    y_label: str = "",
) -> str:
    """Plot one or more named series over a shared categorical x-axis.

    Each series is drawn with its own marker; the legend maps markers to
    names.  Values are linearly scaled into ``height`` rows.
    """
    if not series:
        raise ValueError("no series to plot")
    lengths = {len(values) for values in series.values()}
    if lengths != {len(x_labels)}:
        raise ValueError("every series must have one value per x label")
    if height < 2 or width < 10:
        raise ValueError("chart too small")

    markers = "*o+x#@%&"
    all_values = [v for values in series.values() for v in values if v == v]
    lo, hi = min(all_values), max(all_values)
    if hi == lo:
        hi = lo + 1.0

    columns = len(x_labels)
    # Horizontal positions for each x index, spread across the width.
    if columns == 1:
        positions = [width // 2]
    else:
        positions = [round(i * (width - 1) / (columns - 1)) for i in range(columns)]

    grid = [[" "] * width for _ in range(height)]
    for series_index, (name, values) in enumerate(series.items()):
        marker = markers[series_index % len(markers)]
        for i, value in enumerate(values):
            if value != value:  # NaN
                continue
            row = round((hi - value) / (hi - lo) * (height - 1))
            grid[row][positions[i]] = marker

    lines: List[str] = []
    if y_label:
        lines.append(y_label)
    top = f"{hi:.4g}"
    bottom = f"{lo:.4g}"
    label_width = max(len(top), len(bottom))
    for row_index, row in enumerate(grid):
        if row_index == 0:
            prefix = top.rjust(label_width)
        elif row_index == height - 1:
            prefix = bottom.rjust(label_width)
        else:
            prefix = " " * label_width
        lines.append(f"{prefix} |{''.join(row)}")
    axis = " " * label_width + " +" + "-" * width

    lines.append(axis)
    tick_row = [" "] * width
    for i, label in enumerate(x_labels):
        start = min(positions[i], width - len(str(label)))
        for j, ch in enumerate(str(label)):
            if 0 <= start + j < width:
                tick_row[start + j] = ch
    lines.append(" " * label_width + "  " + "".join(tick_row))

    legend = "   ".join(
        f"{markers[i % len(markers)]} {name}" for i, name in enumerate(series)
    )
    lines.append(f"{' ' * label_width}  [{legend}]")
    return "\n".join(lines)

