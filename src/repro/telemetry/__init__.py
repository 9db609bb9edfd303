"""Telemetry: metrics registry, span tracing, and structured run logs.

The observability layer for the profile -> compile -> execute pipeline.
Disabled by default and free when off; enable it around any workload::

    from repro.telemetry import telemetry_session
    from repro.telemetry.summary import render_summary

    with telemetry_session(trace_path="trace.jsonl") as telemetry:
        evaluate_policies(program)
        print(render_summary(telemetry))

See ``docs/observability.md`` for the full guide.
"""

from .export import export_chrome_trace, trace_summary, validate_chrome_trace
from .ledger import (
    LEDGER_SCHEMA_VERSION,
    RunLedger,
    RunManifest,
    collect_manifest,
    diff_manifests,
    fidelity_summary,
    git_revision,
    ledger_from_env,
    provenance,
    render_manifest,
    render_manifest_diff,
)
from .profiler import (
    DEFAULT_SAMPLE_EVERY,
    HotLoopProfiler,
    ProfileRow,
    ProfileTotals,
    reconcile,
    render_profile,
)
from .registry import Counter, Gauge, Histogram, MetricsRegistry, Timer
from .runtime import (
    Telemetry,
    get_telemetry,
    set_telemetry,
    telemetry_session,
)
from .sink import (
    JsonlSink,
    ListSink,
    TraceReadResult,
    decision_records,
    read_events,
    reconstruct_spans,
)
from .spans import Span, SpanNode, SpanTracer, build_tree
from .timeline import (
    DEFAULT_TIMELINE_WINDOW,
    TimelineTrack,
    WindowSample,
    is_level_series,
    render_track,
)
from .views import figure_observables, occupancy_view, slice_length_view
from .summary import (
    PhaseTotal,
    cache_hit_rate,
    cache_io_stats,
    cache_stats,
    hottest_spans,
    phase_totals,
    pool_stats,
    rcmp_breakdown,
    render_cache_stats,
    render_metrics,
    render_pool_stats,
    render_rcmp_breakdown,
    render_span_tree,
    render_summary,
)

__all__ = [
    "DEFAULT_SAMPLE_EVERY",
    "DEFAULT_TIMELINE_WINDOW",
    "LEDGER_SCHEMA_VERSION",
    "RunLedger",
    "RunManifest",
    "cache_io_stats",
    "collect_manifest",
    "diff_manifests",
    "fidelity_summary",
    "git_revision",
    "ledger_from_env",
    "pool_stats",
    "provenance",
    "render_manifest",
    "render_manifest_diff",
    "render_pool_stats",
    "HotLoopProfiler",
    "ProfileRow",
    "ProfileTotals",
    "TimelineTrack",
    "TraceReadResult",
    "WindowSample",
    "export_chrome_trace",
    "figure_observables",
    "is_level_series",
    "occupancy_view",
    "reconcile",
    "render_profile",
    "render_track",
    "slice_length_view",
    "trace_summary",
    "validate_chrome_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Timer",
    "Telemetry",
    "get_telemetry",
    "set_telemetry",
    "telemetry_session",
    "JsonlSink",
    "ListSink",
    "decision_records",
    "read_events",
    "reconstruct_spans",
    "Span",
    "SpanNode",
    "SpanTracer",
    "build_tree",
    "PhaseTotal",
    "cache_hit_rate",
    "cache_stats",
    "hottest_spans",
    "phase_totals",
    "rcmp_breakdown",
    "render_cache_stats",
    "render_metrics",
    "render_rcmp_breakdown",
    "render_span_tree",
    "render_summary",
]
