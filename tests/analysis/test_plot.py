"""Unit tests for terminal charts."""

import pytest

from repro.analysis.plot import render_chart


def test_chart_contains_markers_and_legend():
    chart = render_chart(
        {"DSR": [0.8, 0.9, 0.95], "All": [0.95, 0.97, 0.99]},
        x_labels=["0", "100", "500"],
        height=8,
        width=30,
    )
    assert "*" in chart and "o" in chart
    assert "DSR" in chart and "All" in chart
    assert "100" in chart


def test_chart_scales_extremes_to_edges():
    chart = render_chart({"s": [0.0, 1.0]}, x_labels=["a", "b"], height=6, width=20)
    lines = chart.splitlines()
    plot_rows = [line for line in lines if "|" in line]
    assert "*" in plot_rows[0]  # max on the top row
    assert "*" in plot_rows[-1]  # min on the bottom row
    assert "1" in plot_rows[0].split("|")[0]
    assert "0" in plot_rows[-1].split("|")[0]


def test_chart_constant_series_does_not_crash():
    chart = render_chart({"s": [5.0, 5.0]}, x_labels=["a", "b"])
    assert "*" in chart


def test_chart_single_point():
    chart = render_chart({"s": [3.0]}, x_labels=["only"])
    assert "only" in chart


def test_chart_validation():
    with pytest.raises(ValueError):
        render_chart({}, x_labels=[])
    with pytest.raises(ValueError):
        render_chart({"s": [1.0, 2.0]}, x_labels=["a"])
    with pytest.raises(ValueError):
        render_chart({"s": [1.0]}, x_labels=["a"], height=1)

