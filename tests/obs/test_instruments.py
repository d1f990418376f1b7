"""Unit tests for the metrics instruments and their registry."""

import pytest

from repro.obs.instruments import Counter, Gauge, Histogram, MetricsRegistry


def test_counter_increments_and_snapshots():
    counter = Counter("pkts")
    counter.inc()
    counter.inc(4)
    assert counter.snapshot() == {"pkts": 5.0}


def test_counter_rejects_decrease():
    counter = Counter("pkts")
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_is_point_in_time():
    gauge = Gauge("depth")
    gauge.set(7)
    gauge.set(3)
    assert gauge.snapshot() == {"depth": 3.0}


def test_histogram_cumulative_buckets():
    hist = Histogram("delay", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 0.5, 2.0):
        hist.observe(value)
    snap = hist.snapshot()
    assert snap["delay.count"] == 4.0
    assert snap["delay.sum"] == pytest.approx(3.05)
    assert snap["delay.le.0.1"] == 1.0  # cumulative: <= 0.1
    assert snap["delay.le.1"] == 3.0  # <= 1.0 includes the first bucket


def test_histogram_bucket_bound_is_inclusive():
    hist = Histogram("h", buckets=(1.0,))
    hist.observe(1.0)
    assert hist.snapshot()["h.le.1"] == 1.0


def test_histogram_rejects_unsorted_buckets():
    with pytest.raises(ValueError):
        Histogram("h", buckets=(2.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("h", buckets=())


def test_registry_get_or_create_returns_same_instrument():
    registry = MetricsRegistry()
    a = registry.counter("x")
    b = registry.counter("x")
    assert a is b
    assert len(registry) == 1


def test_registry_rejects_type_shadowing():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(TypeError):
        registry.gauge("x")


def test_registry_snapshot_merges_in_registration_order():
    registry = MetricsRegistry()
    registry.counter("b").inc(2)
    registry.gauge("a").set(1)
    snap = registry.snapshot()
    assert list(snap) == ["b", "a"]
    assert snap == {"b": 2.0, "a": 1.0}
