"""Metrics registry: counters, gauges, histograms, labels."""

import pytest

from repro.telemetry import MetricsRegistry
from repro.telemetry.registry import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    format_series,
)


def test_counter_series_are_independent_per_labelset():
    registry = MetricsRegistry()
    registry.counter("rcmp.outcomes", policy="FLC", outcome="fired").inc()
    registry.counter("rcmp.outcomes", policy="FLC", outcome="fired").inc(2)
    registry.counter("rcmp.outcomes", policy="FLC", outcome="skipped").inc()
    assert registry.value("rcmp.outcomes", policy="FLC", outcome="fired") == 3
    assert registry.value("rcmp.outcomes", policy="FLC", outcome="skipped") == 1
    assert registry.value("rcmp.outcomes", policy="LLC", outcome="fired") is None


def test_label_order_does_not_matter():
    registry = MetricsRegistry()
    registry.counter("m", a="1", b="2").inc()
    assert registry.counter("m", b="2", a="1").value == 1


def test_gauge_moves_both_ways():
    registry = MetricsRegistry()
    gauge = registry.gauge("hist.occupancy")
    gauge.set(17)
    gauge.set(4)
    assert registry.value("hist.occupancy") == 4


def test_histogram_percentiles_exact():
    registry = MetricsRegistry()
    histogram = registry.histogram("lat")
    for value in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10):
        histogram.observe(value)
    assert histogram.count == 10
    assert histogram.min == 1
    assert histogram.max == 10
    assert histogram.mean == pytest.approx(5.5)
    assert histogram.percentile(0) == 1
    assert histogram.percentile(100) == 10
    assert histogram.percentile(50) == pytest.approx(5.5)
    assert histogram.percentile(25) == pytest.approx(3.25)


def test_histogram_percentile_edge_cases():
    registry = MetricsRegistry()
    histogram = registry.histogram("lat")
    assert histogram.percentile(50) == 0.0  # empty
    histogram.observe(42)
    assert histogram.percentile(99) == 42.0  # single observation
    with pytest.raises(ValueError):
        histogram.percentile(101)


def test_kind_conflict_raises():
    registry = MetricsRegistry()
    registry.counter("m")
    with pytest.raises(TypeError):
        registry.gauge("m")


def test_snapshot_and_render_shapes():
    registry = MetricsRegistry()
    registry.counter("c", k="v").inc(5)
    registry.histogram("h").observe(2.0)
    snapshot = registry.snapshot()
    assert snapshot["c{k=v}"] == 5
    assert snapshot["h"]["count"] == 1
    assert format_series("c", (("k", "v"),)) == "c{k=v}"


def test_null_instruments_absorb_updates():
    NULL_COUNTER.inc(100)
    NULL_GAUGE.set(3)
    NULL_HISTOGRAM.observe(1.0)
    assert NULL_COUNTER.value == 0
    assert NULL_GAUGE.value == 0
    assert NULL_HISTOGRAM.count == 0
