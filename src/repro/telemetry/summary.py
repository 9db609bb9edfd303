"""Human-readable views over a telemetry session.

Renders the three things an operator actually reads after a run: the
span tree with wall-clock durations, the hottest span names by self
time, and the RCMP decision breakdown (how often each policy fired,
skipped, or fell back, and why).  ``repro stats`` and the ``--metrics``
flag are thin wrappers over these functions.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

from .registry import MetricsRegistry, format_series
from .runtime import Telemetry
from .spans import SpanNode


def _format_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.0f}us"


def _format_attrs(attrs: Dict[str, object]) -> str:
    if not attrs:
        return ""
    inner = ", ".join(f"{key}={value}" for key, value in attrs.items())
    return f" [{inner}]"


def render_span_tree(roots: Iterable[SpanNode]) -> str:
    """Indented tree: one line per span with duration and attributes."""
    lines: List[str] = []

    def visit(node: SpanNode, depth: int) -> None:
        marker = "" if node.span.status == "ok" else " !error"
        lines.append(
            f"{'  ' * depth}{node.name:<{max(1, 28 - 2 * depth)}} "
            f"{_format_duration(node.duration_s):>10}"
            f"{marker}{_format_attrs(node.span.attrs)}"
        )
        for child in node.children:
            visit(child, depth + 1)

    for root in roots:
        visit(root, 0)
    return "\n".join(lines) if lines else "(no spans recorded)"


@dataclasses.dataclass(frozen=True)
class PhaseTotal:
    """Aggregate cost of one span name across a whole session."""

    name: str
    self_time_s: float
    count: int


def phase_totals(roots: Iterable[SpanNode]) -> List[PhaseTotal]:
    """Per-span-name self-time totals over the forest, hottest first.

    Self time (duration minus child durations) is used so nested phases
    are not counted twice.  The totals are self seconds summed over
    every process: each ``--jobs`` worker's spans join the tree and
    count in full, so under ``--jobs N`` the sum is the session's traced
    time across all processes and can exceed its wall clock.  This is
    the aggregation run-ledger manifests record as per-phase timings.
    """
    self_time: Dict[str, float] = defaultdict(float)
    counts: Dict[str, int] = defaultdict(int)
    for root in roots:
        for node in root.walk():
            self_time[node.name] += node.self_time_s
            counts[node.name] += 1
    ranked = sorted(self_time.items(), key=lambda item: (-item[1], item[0]))
    return [
        PhaseTotal(name=name, self_time_s=seconds, count=counts[name])
        for name, seconds in ranked
    ]


def hottest_spans(
    roots: Iterable[SpanNode], top: int = 5
) -> List[Tuple[str, float, int]]:
    """``(name, total self time, count)`` aggregated over the forest."""
    return [
        (total.name, total.self_time_s, total.count)
        for total in phase_totals(roots)[:top]
    ]


def render_hottest_spans(roots: Iterable[SpanNode], top: int = 5) -> str:
    rows = hottest_spans(roots, top)
    if not rows:
        return "(no spans recorded)"
    lines = [f"top {len(rows)} spans by self time:"]
    for rank, (name, seconds, count) in enumerate(rows, start=1):
        lines.append(
            f"  {rank}. {name:<28} {_format_duration(seconds):>10}  (x{count})"
        )
    return "\n".join(lines)


def rcmp_breakdown(registry: MetricsRegistry) -> Dict[str, Dict[str, int]]:
    """``{policy: {outcome: count}}`` from the ``rcmp.outcomes`` series."""
    breakdown: Dict[str, Dict[str, int]] = defaultdict(dict)
    for series in registry.series("rcmp.outcomes"):
        labels = dict(series.labels)
        policy = labels.get("policy", "?")
        outcome = labels.get("outcome", "?")
        breakdown[policy][outcome] = series.value
    return dict(breakdown)


def render_rcmp_breakdown(registry: MetricsRegistry) -> str:
    breakdown = rcmp_breakdown(registry)
    if not breakdown:
        return "(no RCMP decisions recorded)"
    outcomes = ("fired", "skipped", "fallback")
    lines = ["RCMP decisions (per policy):"]
    header = f"  {'policy':<10}" + "".join(f"{o:>10}" for o in outcomes) + f"{'total':>10}"
    lines.append(header)
    for policy in sorted(breakdown):
        row = breakdown[policy]
        total = sum(row.values())
        cells = "".join(f"{row.get(outcome, 0):>10}" for outcome in outcomes)
        lines.append(f"  {policy:<10}{cells}{total:>10}")
    return "\n".join(lines)


#: The two cache layers and the metric series that count their traffic:
#: the in-memory ``SuiteRunner`` memoisation and the persistent on-disk
#: :class:`~repro.harness.cache.ResultCache`.
CACHE_SERIES = {"memory": "suite.cache", "disk": "suite.result_cache"}


def cache_stats(registry: MetricsRegistry) -> Dict[str, Dict[str, int]]:
    """``{layer: {result: count}}`` for both result-cache layers.

    Layers with no recorded traffic are omitted, so a run without a
    configured disk cache reports only the memory layer (or nothing).
    """
    stats: Dict[str, Dict[str, int]] = {}
    for layer, metric_name in CACHE_SERIES.items():
        counts: Dict[str, int] = {}
        for series in registry.series(metric_name):
            result = dict(series.labels).get("result", "?")
            counts[result] = counts.get(result, 0) + series.value
        if counts:
            stats[layer] = counts
    return stats


def cache_hit_rate(counts: Dict[str, int]) -> Optional[float]:
    """Hit fraction of one layer's counts, or ``None`` with no lookups.

    Corrupt entries are misses that additionally destroyed an entry, so
    they count against the rate.
    """
    hits = counts.get("hit", 0)
    lookups = hits + counts.get("miss", 0) + counts.get("corrupt", 0)
    if lookups == 0:
        return None
    return hits / lookups


#: Disk-cache I/O counters (:mod:`repro.harness.cache`): what moved, in
#: operations and bytes, as opposed to the per-layer lookup verdicts.
CACHE_IO_SERIES = (
    "cache.hits",
    "cache.misses",
    "cache.corrupt_misses",
    "cache.bytes_written",
)


def cache_io_stats(registry: MetricsRegistry) -> Dict[str, float]:
    """The ``cache.*`` operational counters that saw traffic.

    Keys are the bare counter suffixes (``hits``, ``misses``,
    ``corrupt_misses``, ``bytes_written``); untouched counters are
    omitted so a run without a disk cache reports ``{}``.
    """
    stats: Dict[str, float] = {}
    for metric_name in CACHE_IO_SERIES:
        total = sum(series.value for series in registry.series(metric_name))
        if total or registry.series(metric_name):
            stats[metric_name.split(".", 1)[1]] = total
    return stats


def pool_stats(registry: MetricsRegistry) -> Dict[str, object]:
    """Pool utilisation from the ``pool.*`` series, or ``{}`` if unused.

    ``busy_s`` maps worker pid to total busy seconds; ``unit_s`` and
    ``queue_wait_s`` are histogram snapshots; the straggler gauges are
    copied through as plain numbers.
    """
    stats: Dict[str, object] = {}
    busy: Dict[str, float] = {}
    for series in registry.series("pool.busy_s"):
        worker = dict(series.labels).get("worker", "?")
        busy[worker] = busy.get(worker, 0.0) + float(series.sum)
    if busy:
        stats["busy_s"] = busy
    for name in ("pool.unit_s", "pool.queue_wait_s"):
        for series in registry.series(name):
            stats[name.split(".", 1)[1]] = series.snapshot()
    for name in (
        "pool.workers", "pool.straggler_max_s",
        "pool.straggler_median_s", "pool.straggler_ratio",
    ):
        for series in registry.series(name):
            stats[name.split(".", 1)[1]] = series.value
    return stats


def render_cache_stats(registry: MetricsRegistry) -> str:
    """Cache effectiveness, one line per layer (memory / disk)."""
    stats = cache_stats(registry)
    io = cache_io_stats(registry)
    if not stats and not io:
        return "(no result-cache traffic recorded)"
    lines = ["result caches:"]
    for layer in ("memory", "disk"):
        counts = stats.get(layer)
        if not counts:
            continue
        rate = cache_hit_rate(counts)
        rate_text = "n/a" if rate is None else f"{100 * rate:.1f}%"
        detail = ", ".join(
            f"{result}={counts[result]}" for result in sorted(counts)
        )
        lines.append(f"  {layer:<7} hit rate {rate_text:>6}  ({detail})")
    if io:
        detail = ", ".join(
            f"{name}={int(io[name])}" for name in (
                "hits", "misses", "corrupt_misses", "bytes_written"
            ) if name in io
        )
        lines.append(f"  disk io  {detail}")
    return "\n".join(lines)


def render_pool_stats(registry: MetricsRegistry) -> str:
    """Worker-pool utilisation: busy time per worker plus stragglers."""
    stats = pool_stats(registry)
    if not stats:
        return "(no pool activity recorded)"
    lines = ["worker pool:"]
    busy = stats.get("busy_s", {})
    for worker in sorted(busy):
        lines.append(f"  worker {worker:<8} busy {busy[worker]:.2f}s")
    unit = stats.get("unit_s")
    if unit:
        lines.append(
            f"  unit time   p50 {unit['p50']:.2f}s  max {unit['max']:.2f}s  "
            f"(x{unit['count']})"
        )
    wait = stats.get("queue_wait_s")
    if wait:
        lines.append(
            f"  queue wait  p50 {wait['p50']:.3f}s  max {wait['max']:.3f}s"
        )
    ratio = stats.get("straggler_ratio")
    if ratio is not None:
        lines.append(f"  straggler   max/median = {ratio:.2f}")
    return "\n".join(lines)


def render_metrics(registry: MetricsRegistry) -> str:
    """Every registered series, one line each."""
    all_series = registry.series()
    if not all_series:
        return "(no metrics recorded)"
    lines = ["metrics:"]
    for series in all_series:
        label = format_series(series.name, series.labels)
        if series.kind == "histogram":
            snap = series.snapshot()
            lines.append(
                f"  {label:<56} count={snap['count']} mean={snap['mean']:.4g} "
                f"p50={snap['p50']:.4g} p95={snap['p95']:.4g} max={snap['max']:.4g}"
            )
        else:
            lines.append(f"  {label:<56} {series.value}")
    return "\n".join(lines)


def render_summary(telemetry: Telemetry, top: int = 5) -> str:
    """The full post-run report: tree, hot spans, RCMP table, metrics."""
    roots = telemetry.tracer.tree()
    sections = [
        "== span tree ==",
        render_span_tree(roots),
        "",
        "== hottest spans ==",
        render_hottest_spans(roots, top),
        "",
        "== recomputation ==",
        render_rcmp_breakdown(telemetry.registry),
        "",
        "== result cache ==",
        render_cache_stats(telemetry.registry),
    ]
    if pool_stats(telemetry.registry):
        sections += ["", "== worker pool ==", render_pool_stats(telemetry.registry)]
    sections += ["", "== metrics ==", render_metrics(telemetry.registry)]
    return "\n".join(sections)
