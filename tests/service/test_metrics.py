"""Unit tests for ``ServiceMetrics``: counts, histograms, sampled states."""

import pytest

from repro.service.metrics import (
    FLEET_TOTALS,
    JOB_WALL_BUCKETS,
    STAGE_WALL_BUCKETS,
    ServiceMetrics,
    prometheus_value,
)


class Sampled:
    """A settable stand-in for the service's sampler."""

    def __init__(self):
        self.jobs = {"pending": 0, "running": 0}
        self.fleet = {"workers_connected": 0, "leases_active": 0, "shards_pending": 0}
        self.fleet.update(dict.fromkeys(FLEET_TOTALS, 0))
        self.draining = False

    def __call__(self):
        return dict(self.jobs), dict(self.fleet), self.draining


def test_event_counts_bump_and_snapshot():
    metrics = ServiceMetrics(Sampled())
    metrics.count("service.jobs.done")
    metrics.count("service.jobs.done", 4)
    snap = metrics.snapshot()
    assert snap["service.jobs.done"] == 5
    assert snap["service.jobs.failed"] == 0


def test_states_are_read_at_the_snapshot():
    sampled = Sampled()
    metrics = ServiceMetrics(sampled)
    sampled.jobs["pending"] = 7
    assert metrics.snapshot()["service.queue.depth"] == 7
    sampled.jobs["pending"], sampled.draining = 3, True
    snap = metrics.snapshot()
    assert snap["service.queue.depth"] == snap["service.jobs.pending"] == 3
    assert snap["service.draining"] == 1


def test_board_totals_never_go_down():
    """Two scrapes may sample in one order and report in the other: a
    total read lower than one already reported keeps the higher."""
    sampled = Sampled()
    metrics = ServiceMetrics(sampled)
    sampled.fleet["leases_granted"] = 5
    assert metrics.snapshot()["service.fleet.leases_granted"] == 5
    sampled.fleet["leases_granted"] = 4
    assert metrics.snapshot()["service.fleet.leases_granted"] == 5
    sampled.fleet["leases_granted"] = 6
    assert metrics.snapshot()["service.fleet.leases_granted"] == 6


def test_histogram_cumulative_buckets():
    metrics = ServiceMetrics(Sampled())
    for value in (0.05, 0.5, 0.5, 2.5):
        metrics.observe("service.job.wall_s", value)
    snap = metrics.snapshot()
    assert snap["service.job.wall_s.count"] == 4
    assert snap["service.job.wall_s.sum"] == pytest.approx(3.55)
    assert snap["service.job.wall_s.le.0.1"] == 1  # cumulative: <= 0.1
    assert snap["service.job.wall_s.le.1"] == 3  # <= 1.0 includes the first bucket
    assert snap["service.job.wall_s.le.2"] == 3
    assert snap["service.job.wall_s.le.1800"] == 4


def test_histogram_bucket_bound_is_inclusive():
    metrics = ServiceMetrics(Sampled())
    metrics.observe_stage("dispatch", 1.0)
    snap = metrics.snapshot()
    assert snap["service.stage.dispatch.wall_s.le.0.5"] == 0
    assert snap["service.stage.dispatch.wall_s.le.1"] == 1


def test_unknown_stage_kinds_are_ignored():
    metrics = ServiceMetrics(Sampled())
    before = metrics.snapshot()
    metrics.observe_stage("no.such.kind", 1.0)
    assert metrics.snapshot() == before


def test_bucket_bounds_are_sorted_and_unique():
    for bounds in (JOB_WALL_BUCKETS, STAGE_WALL_BUCKETS):
        assert bounds and list(bounds) == sorted(set(bounds))


def test_values_print_as_g_unless_it_drops_digits_of_an_integer():
    for value in (0, 1, 7.0, 0.1, 0.125, 999_999, 1e6, 2.5e7, 0.123456789, 1234.5678):
        assert prometheus_value(value) == f"{value:g}"
    assert prometheus_value(1_234_567) == "1234567"
    assert prometheus_value(1_234_567.0) == "1234567"
    assert prometheus_value(2**60) == str(2**60)
