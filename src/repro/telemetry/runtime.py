"""The telemetry runtime: one switchable facade the pipeline talks to.

Instrumented code does not know whether telemetry is on::

    from ..telemetry.runtime import get_telemetry

    telemetry = get_telemetry()
    with telemetry.span("compile.formation", loads=len(candidates)):
        ...
    telemetry.counter("compile.slices").inc(len(chosen))

When disabled (the default), :meth:`Telemetry.span` returns a shared
no-op context manager and :meth:`Telemetry.counter` a shared null
instrument — no allocation, no timing calls, no behavioural difference
from the un-instrumented simulator.  :func:`telemetry_session` swaps in
an enabled :class:`Telemetry` (optionally writing a JSONL trace) for the
duration of a ``with`` block and restores the previous state afterwards,
which is how the CLI's ``--trace-out`` / ``--metrics`` flags and the
test-suite isolate their observations.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import List, Optional

from .registry import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    MetricsRegistry,
)
from .sink import JsonlSink, ListSink
from .spans import NULL_SPAN_CONTEXT, SpanTracer
from .timeline import TimelineTrack


class Telemetry:
    """Registry + tracer + sink behind a single enabled/disabled gate.

    Two optional deep-observability attachments ride on the facade:

    * ``timeline_window`` — when set, every CPU run started under this
      session gets a :class:`~repro.telemetry.timeline.TimelineTrack`
      sampling structure occupancy/pressure every N retired
      instructions (collected in :attr:`timelines`);
    * ``profiler`` — a
      :class:`~repro.telemetry.profiler.HotLoopProfiler`; when present,
      CPU runs switch to the instrumented dispatch loop and attribute
      host wall clock and modeled energy per opcode.
    """

    def __init__(
        self,
        enabled: bool = False,
        sink=None,
        clock=None,
        timeline_window: Optional[int] = None,
        profiler=None,
    ):
        self.enabled = enabled
        self.sink = sink
        self.registry = MetricsRegistry()
        self.tracer = (
            SpanTracer(sink=sink, clock=clock) if clock else SpanTracer(sink=sink)
        )
        self.timeline_window = timeline_window
        self.profiler = profiler
        self.timelines: List[TimelineTrack] = []

    # ------------------------------------------------------------------
    # Spans.
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs):
        """A timed region; a shared no-op when telemetry is disabled."""
        if not self.enabled:
            return NULL_SPAN_CONTEXT
        return self.tracer.span(name, **attrs)

    # ------------------------------------------------------------------
    # Metrics.
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels):
        if not self.enabled:
            return NULL_COUNTER
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels):
        if not self.enabled:
            return NULL_GAUGE
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str, **labels):
        if not self.enabled:
            return NULL_HISTOGRAM
        return self.registry.histogram(name, **labels)

    # ------------------------------------------------------------------
    # Structured events.
    # ------------------------------------------------------------------
    def event(self, event_type: str, **fields) -> None:
        """Emit one structured record (no-op without an enabled sink)."""
        if self.enabled and self.sink is not None:
            self.sink.emit({"type": event_type, **fields})

    def publish_run_stats(self, stats, **labels) -> None:
        """Register a finished run's :class:`RunStats` with the registry."""
        if self.enabled:
            stats.publish(self.registry, **labels)

    # ------------------------------------------------------------------
    # Deep observability attachments (timeline sampler, profiler).
    # ------------------------------------------------------------------
    def active_profiler(self):
        """The installed hot-loop profiler, or None (the common case)."""
        return self.profiler if self.enabled else None

    def open_timeline(self, cpu) -> Optional[TimelineTrack]:
        """Attach a windowed timeline track to a starting CPU run.

        Returns None unless this session was configured with a
        ``timeline_window`` — the retire path then pays only a single
        ``is None`` check per instruction.
        """
        if not self.enabled or self.timeline_window is None:
            return None
        attrs = {}
        policy = getattr(cpu, "policy", None)
        if policy is not None:
            attrs["policy"] = policy.name
        track = TimelineTrack(
            label=f"{cpu.TELEMETRY_LABEL}#{len(self.timelines)}",
            observe=cpu.observe,
            window=self.timeline_window,
            sink=self.sink,
            attrs=attrs,
        )
        self.timelines.append(track)
        return track

    def emit_clock_sync(self) -> None:
        """Record this process's perf-counter/wall-clock correspondence.

        One ``clock_sync`` event per session lets the trace exporter map
        every process's monotonic span timestamps onto one shared
        timeline (see :mod:`repro.telemetry.export`).
        """
        self.event(
            "clock_sync",
            perf=time.perf_counter(),
            wall=time.time(),
            pid=os.getpid(),
        )

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self.sink is not None:
            self.sink.close()


#: The process-wide default: telemetry off.
_DISABLED = Telemetry(enabled=False)
_current: Telemetry = _DISABLED


def get_telemetry() -> Telemetry:
    """The active telemetry facade (instrumented code calls this)."""
    return _current


def set_telemetry(telemetry: Telemetry) -> Telemetry:
    """Install *telemetry* as the active facade; returns the previous one."""
    global _current
    previous = _current
    _current = telemetry
    return previous


@contextmanager
def telemetry_session(
    trace_path: Optional[str] = None,
    sink=None,
    collect_events: bool = False,
    timeline_window: Optional[int] = None,
    profiler=None,
):
    """Enable telemetry for a ``with`` block, then restore prior state.

    *trace_path* writes every event as JSONL to that file;
    *sink* supplies an explicit sink object instead;
    *collect_events* (no path/sink) buffers events in a
    :class:`~repro.telemetry.sink.ListSink` for in-process inspection;
    *timeline_window* attaches a windowed microarchitectural timeline
    sampler to every CPU run in the block;
    *profiler* installs a
    :class:`~repro.telemetry.profiler.HotLoopProfiler` on the session.

    Sessions with a sink immediately record a ``clock_sync`` event so
    cross-process traces can be aligned onto one timeline.
    """
    if sink is None:
        if trace_path is not None:
            sink = JsonlSink(trace_path)
        elif collect_events:
            sink = ListSink()
    session = Telemetry(
        enabled=True,
        sink=sink,
        timeline_window=timeline_window,
        profiler=profiler,
    )
    if sink is not None:
        session.emit_clock_sync()
    previous = set_telemetry(session)
    try:
        yield session
    finally:
        set_telemetry(previous)
        session.close()
