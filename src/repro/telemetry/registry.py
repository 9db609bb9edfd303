"""Labeled metrics: counters, gauges and histograms.

The registry is the single home for run-time measurements.  Every
series is identified by a metric name plus a (sorted) label set, so
``registry.counter("rcmp.outcomes", policy="FLC", outcome="fired")`` and
the same name under ``outcome="skipped"`` are independent series that
render side by side.

Instruments are plain Python objects with one hot method each
(:meth:`Counter.inc`, :meth:`Gauge.set`, :meth:`Histogram.observe`); the
module also provides shared *null* instances (:data:`NULL_COUNTER` and
friends) that absorb updates, which the telemetry runtime hands out when
telemetry is disabled so instrumented code pays only an attribute check.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

Number = Union[int, float]
LabelSet = Tuple[Tuple[str, str], ...]


def _labelset(labels: Dict[str, object]) -> LabelSet:
    """Normalise keyword labels into a hashable, ordered key."""
    return tuple(sorted((str(key), str(value)) for key, value in labels.items()))


def format_series(name: str, labels: LabelSet) -> str:
    """Render ``name{k=v,...}`` for tables and snapshots."""
    if not labels:
        return name
    inner = ",".join(f"{key}={value}" for key, value in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelSet = ()):
        self.name = name
        self.labels = labels
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def snapshot(self) -> Number:
        return self.value


class Gauge:
    """A value that can move both ways (occupancy, high-water, ...)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelSet = ()):
        self.name = name
        self.labels = labels
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def snapshot(self) -> Number:
        return self.value


class Histogram:
    """A distribution with exact percentiles.

    Observations are retained, which is fine at this simulator's scale
    (spans and per-phase timings, not per-instruction samples); exact
    retention keeps :meth:`percentile` honest for tests and reports.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "_values")

    def __init__(self, name: str, labels: LabelSet = ()):
        self.name = name
        self.labels = labels
        self._values: List[Number] = []

    def observe(self, value: Number) -> None:
        self._values.append(value)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def sum(self) -> Number:
        return sum(self._values)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self._values else 0.0

    @property
    def min(self) -> Number:
        return min(self._values) if self._values else 0

    @property
    def max(self) -> Number:
        return max(self._values) if self._values else 0

    def percentile(self, q: float) -> float:
        """Exact q-th percentile (0 <= q <= 100, linear interpolation)."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile {q} outside [0, 100]")
        if not self._values:
            return 0.0
        ordered = sorted(self._values)
        if len(ordered) == 1:
            return float(ordered[0])
        rank = (q / 100.0) * (len(ordered) - 1)
        low = int(rank)
        frac = rank - low
        if frac == 0.0:
            return float(ordered[low])
        return float(ordered[low] + (ordered[low + 1] - ordered[low]) * frac)

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": float(self.sum),
            "min": float(self.min),
            "max": float(self.max),
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
        }


class MetricsRegistry:
    """All live metric series, keyed by ``(name, labels)``."""

    def __init__(self):
        self._series: Dict[Tuple[str, LabelSet], object] = {}

    def _instrument(self, factory, name: str, labels: Dict[str, object]):
        key = (name, _labelset(labels))
        metric = self._series.get(key)
        if metric is None:
            metric = factory(name, key[1])
            self._series[key] = metric
        elif not isinstance(metric, factory):
            raise TypeError(
                f"metric {format_series(*key)} already registered as "
                f"{metric.kind}, not {factory.kind}"
            )
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._instrument(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._instrument(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._instrument(Histogram, name, labels)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def get(self, name: str, **labels):
        """The series for (name, labels), or None if never touched."""
        return self._series.get((name, _labelset(labels)))

    def value(self, name: str, **labels):
        """Convenience: a counter/gauge's value, or None if absent."""
        metric = self.get(name, **labels)
        return None if metric is None else metric.value

    def series(self, name: Optional[str] = None) -> List[object]:
        """All series, or all series of one metric name, sorted."""
        return [
            metric for (metric_name, _), metric in sorted(self._series.items())
            if name is None or metric_name == name
        ]

    def snapshot(self) -> Dict[str, object]:
        """JSON-able view of every series."""
        return {
            format_series(name, labels): metric.snapshot()
            for (name, labels), metric in sorted(self._series.items())
        }

    # ------------------------------------------------------------------
    # Cross-process transfer (the parallel engine's telemetry merge).
    # ------------------------------------------------------------------
    def dump(self) -> List[Dict[str, object]]:
        """Picklable, merge-ready view of every series.

        Unlike :meth:`snapshot` (which collapses histograms into summary
        statistics), the dump keeps raw histogram observations so a
        receiving registry can merge them losslessly.
        """
        entries: List[Dict[str, object]] = []
        for (name, labels), metric in sorted(self._series.items()):
            entry: Dict[str, object] = {
                "kind": metric.kind, "name": name, "labels": list(labels)
            }
            if metric.kind == "histogram":
                entry["values"] = list(metric._values)
            else:
                entry["value"] = metric.value
            entries.append(entry)
        return entries

    def merge_dump(self, entries: List[Dict[str, object]]) -> None:
        """Fold a :meth:`dump` from another registry into this one.

        Counters add, histograms extend with the foreign observations,
        and gauges take the incoming value (last writer wins — gauges
        describe instantaneous state, which has no cross-process sum).
        """
        for entry in entries:
            labels = dict(entry["labels"])
            kind = entry["kind"]
            if kind == "counter":
                self.counter(entry["name"], **labels).inc(entry["value"])
            elif kind == "gauge":
                self.gauge(entry["name"], **labels).set(entry["value"])
            elif kind == "histogram":
                histogram = self.histogram(entry["name"], **labels)
                for value in entry["values"]:
                    histogram.observe(value)
            else:
                raise ValueError(f"unknown metric kind {kind!r} in dump")

    def clear(self) -> None:
        self._series.clear()

    def __len__(self) -> int:
        return len(self._series)


# ----------------------------------------------------------------------
# Shared no-op instruments (telemetry disabled).
# ----------------------------------------------------------------------
class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: Number = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: Number) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: Number) -> None:
        pass


NULL_COUNTER = _NullCounter("null")
NULL_GAUGE = _NullGauge("null")
NULL_HISTOGRAM = _NullHistogram("null")
