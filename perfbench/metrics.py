"""Summary statistics and the end-to-end metric definitions.

Every end-to-end number is computed here from what a workload process
reported, so the names and units that ``BENCHMARK.json`` declares have
one home in code (``tests/test_contract.py`` holds the two together).
No ``repro`` import: the parent process never loads the program.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: The checkout root (this file lives in ``<root>/perfbench/``).
ROOT = pathlib.Path(__file__).resolve().parents[1]

#: What a workload, metric or unit name may contain.
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

#: Typical CPU seconds of ``child.reference_work`` on the reference box
#: (2-vCPU KVM guest on a shared Xeon host, Python 3.11).
REFERENCE_S = 2.0e-3

#: How a workload's CPU time moves with the reference loop's: as its
#: 0.75th power.  Fitted per unit on this box over all four workloads
#: (0.63-0.82 each); the loop is cache-resident, so the host's fast
#: phases speed it up more than these heap-heavy workloads, and an
#: exponent of 1 over-corrects every run that lands in one.
SENSITIVITY = 0.75

#: End-to-end metrics: name -> unit.  All are measured with tracing off.
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "units_per_s": "1/s",
    "unit_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

Metric = Tuple[float, str]


def load_contract(root: pathlib.Path = ROOT) -> dict:
    """The parsed ``BENCHMARK.json`` at the checkout root."""
    return json.loads((root / "BENCHMARK.json").read_text())


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(
    samples: Sequence[float],
    candidates: Sequence[float] = (0.999, 0.99, 0.9),
    min_beyond: int = 10,
) -> Optional[Tuple[float, float]]:
    """The highest percentile with at least *min_beyond* samples above it.

    Returns ``(q, value)``, or None when even p90 would rest on fewer
    than *min_beyond* samples (n < 100): a tail estimate from a handful
    of points only repeats the maximum.
    """
    n = len(samples)
    for q in candidates:
        if n - math.ceil(q * n) >= min_beyond:
            return q, percentile(samples, q)
    return None


def speed_scale(samples: Sequence[float]) -> float:
    """Factor taking CPU seconds measured beside *samples* to reference speed."""
    return (REFERENCE_S / statistics.median(samples)) ** SENSITIVITY


def unit_scales(report: dict) -> List[float]:
    """Per unit, the factor taking its CPU seconds to reference speed.

    ``ref_cpu_s`` holds one sample before each unit and one after the
    last, so unit *i* sits between samples *i* and *i + 1*; the host
    speed for it is read from those two and their neighbours.
    """
    ref = report["ref_cpu_s"]
    return [
        speed_scale(ref[max(0, i - 1):i + 3]) for i in range(len(ref) - 1)
    ]


def scaled_times(report: dict) -> Tuple[List[float], float]:
    """Unit CPU seconds and total timed CPU seconds at reference speed.

    Timed work outside the units (the paper-figures renders) is scaled
    by the median unit factor.
    """
    scales = unit_scales(report)
    units = [t * s for t, s in zip(report["unit_cpu_s"], scales)]
    other = report["timed_cpu_s"] - sum(report["unit_cpu_s"])
    return units, sum(units) + other * statistics.median(scales)


def scaled_setup(report: dict) -> float:
    """Set-up CPU seconds at the speed sampled just before and after it."""
    return report["setup_s"] * speed_scale(report["setup_ref_cpu_s"])


def end_to_end(report: dict, setup_reports: List[dict]) -> Dict[str, Metric]:
    """The declared end-to-end metrics of one untraced workload process.

    *report* is the workload process's JSON; *setup_reports* are the
    set-up-only processes', whose set-up times join its own.
    """
    units, timed = scaled_times(report)
    setups = [scaled_setup(r) for r in [report, *setup_reports]]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "units_per_s": (len(units) / timed, "1/s"),
        "unit_ms_p50": (1000.0 * statistics.median(units), "ms"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }


def diagnostics(report: dict) -> Dict[str, object]:
    """Never-gated numbers shown beside the end-to-end metrics."""
    unit_times = report["unit_cpu_s"]
    units, _ = scaled_times(report)
    tail = tail_percentile(units)
    out: Dict[str, object] = {
        "units": len(unit_times),
        "error_rate": report["failed"] / report["attempted"],
        "unit_ms_tail": (
            None if tail is None
            else {"percentile": 100 * tail[0], "ms": 1000.0 * tail[1]}
        ),
        "speed_scale": statistics.median(unit_scales(report)),
        "raw.setup_s": report["setup_s"],
        "raw.units_per_s": len(unit_times) / report["timed_cpu_s"],
        "raw.unit_ms_p50": 1000.0 * statistics.median(unit_times),
        "host.wall_s": report["wall_s"],
        "host.cpu_s": report["cpu_s"],
        "host.steal_frac": report["steal_frac"],
    }
    out.update(report.get("extra", {}))
    return out
