"""The paper's reported numbers, encoded for fidelity scoring.

Every value here is read off the published figures and tables of
*AMNESIAC* (ASPLOS 2017) — the same per-benchmark approximations that
EXPERIMENTS.md quotes in its "paper" columns — so a benchmark run can
score itself against the paper instead of only against yesterday's run.

Two reference shapes exist:

* :class:`ReferenceSeries` — per-benchmark point values with one
  tolerance per figure (Figures 3–5, Table 5).  The tolerances are wide
  by design: this reproduction's documented deviations (workload
  substitution, strict correctness, scaled caches — see EXPERIMENTS.md)
  put some benchmarks 15–25 percentage points off the paper, and the
  tolerance encodes the *known-good* band around that.  A fidelity
  regression therefore means the reproduction moved **further from the
  paper than it has ever legitimately been**, not merely "does not match
  the paper".
* :class:`ReferenceBound` — directional claims (Table 4), where the
  paper's statement is an inequality ("dynamic instruction count
  increases", "Hist reads stay a small share") rather than a number.

Pseudo-benchmark keys ``@mean`` and ``@max`` reference the aggregate
claims the paper quotes in prose (mean 24.92% / best-case 87% EDP gain
over the 11 responsive benchmarks).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Optional, Tuple

from ..analysis.gains import METRIC_EDP, METRIC_ENERGY, METRIC_TIME

#: Aggregate pseudo-benchmarks usable in a :class:`ReferenceSeries`.
AGGREGATE_MEAN = "@mean"
AGGREGATE_MAX = "@max"


@dataclasses.dataclass(frozen=True)
class ReferenceSeries:
    """One figure's per-benchmark paper values plus its tolerance band."""

    figure: str
    metric: str
    policy: str
    tolerance_pp: float  # max |measured - paper| in percentage points
    values: Mapping[str, float]


@dataclasses.dataclass(frozen=True)
class ReferenceBound:
    """A directional paper claim: the measured value must sit in [lo, hi]."""

    figure: str
    metric: str
    lo: Optional[float]
    hi: Optional[float]
    claim: str


@dataclasses.dataclass(frozen=True)
class FidelityMetric:
    """One scored measurement against the paper.

    For a :class:`ReferenceSeries` check, ``paper`` is the paper's value
    and ``abs_error`` the distance from it; for a :class:`ReferenceBound`
    check, ``paper`` is the violated bound (or the nearest one when
    inside) and ``abs_error`` the distance *outside* the bound (0 when
    the claim holds).
    """

    figure: str
    metric: str
    policy: str
    benchmark: str
    paper: float
    measured: float
    abs_error: float
    tolerance_pp: float
    within: bool

    @property
    def key(self) -> str:
        """Stable identity of one scored value across runs."""
        return f"{self.figure}/{self.metric}/{self.policy}/{self.benchmark}"


# ----------------------------------------------------------------------
# Figures 3-5: per-benchmark gains under the Compiler policy.
# ----------------------------------------------------------------------
#: Figure 3 (EDP gain %, Compiler bars, read off the published chart).
FIG3_EDP = ReferenceSeries(
    figure="fig3",
    metric=METRIC_EDP,
    policy="Compiler",
    tolerance_pp=25.0,
    values={
        "mcf": 65.0, "sx": 20.0, "cg": 28.0, "is": 87.0, "ca": 38.0,
        "fs": 30.0, "fe": 16.0, "rt": 14.0, "bp": 30.0, "bfs": 18.5,
        "sr": -7.0,
        # Section 7 prose: 24.92% mean / up to 87% over the 11.
        AGGREGATE_MEAN: 24.92, AGGREGATE_MAX: 87.0,
    },
)

#: Figure 4 (energy gain %): the paper calls out its two leaders.
FIG4_ENERGY = ReferenceSeries(
    figure="fig4",
    metric=METRIC_ENERGY,
    policy="Compiler",
    tolerance_pp=30.0,
    values={"is": 65.0, "mcf": 55.0},
)

#: Figure 5 (execution-time reduction %).  The paper gives no standalone
#: numbers for its leaders, but EDP = energy x time pins them:
#: (1 - edp) = (1 - energy)(1 - time), so is = 1 - 0.13/0.35 = 62.9%
#: and mcf = 1 - 0.35/0.45 = 22.2%.
FIG5_TIME = ReferenceSeries(
    figure="fig5",
    metric=METRIC_TIME,
    policy="Compiler",
    tolerance_pp=25.0,
    values={"is": 62.9, "mcf": 22.2},
)

# ----------------------------------------------------------------------
# Table 5: classic service split of the Compiler policy's swapped loads.
# ----------------------------------------------------------------------
_TABLE5_PAPER: Dict[str, Tuple[float, float, float]] = {
    # bench: (L1 %, L2 %, MEM %)
    "mcf": (12.0, 11.0, 77.0),
    "sx": (85.3, 0.9, 13.8),
    "cg": (87.5, 0.2, 12.3),
    "is": (49.6, 19.3, 31.1),
    "ca": (27.9, 7.5, 64.6),
    "fs": (56.5, 1.9, 41.6),
    "fe": (63.3, 10.1, 26.7),
    "rt": (93.0, 0.8, 6.3),
    "bp": (72.5, 0.0, 27.5),
    "bfs": (98.4, 0.0, 1.6),
    "sr": (93.7, 0.0, 6.3),
}

TABLE5_LEVELS = (
    ReferenceSeries(
        "table5", "l1_percent", "Compiler", 30.0,
        {bench: row[0] for bench, row in _TABLE5_PAPER.items()},
    ),
    ReferenceSeries(
        "table5", "l2_percent", "Compiler", 30.0,
        {bench: row[1] for bench, row in _TABLE5_PAPER.items()},
    ),
    ReferenceSeries(
        "table5", "mem_percent", "Compiler", 30.0,
        {bench: row[2] for bench, row in _TABLE5_PAPER.items()},
    ),
)

# ----------------------------------------------------------------------
# Table 4: directional claims (section 5.2).
# ----------------------------------------------------------------------
TABLE4_BOUNDS = (
    ReferenceBound(
        "table4", "instruction_increase_percent", 0.0, 60.0,
        "dynamic instruction count increases under amnesic execution "
        "(paper: +1.2% ... +31.9%)",
    ),
    ReferenceBound(
        "table4", "load_decrease_percent", 0.0, 100.0,
        "performed loads decrease (paper: 2% ... 61%)",
    ),
    ReferenceBound(
        "table4", "amnesic_hist", None, 10.0,
        "Hist reads stay a small share of amnesic energy "
        "(paper: 0 ... 7.4%)",
    ),
)

#: Per-experiment point references.
REFERENCES: Dict[str, Tuple[ReferenceSeries, ...]] = {
    "fig3": (FIG3_EDP,),
    "fig4": (FIG4_ENERGY,),
    "fig5": (FIG5_TIME,),
    "table5": TABLE5_LEVELS,
}

#: Per-experiment directional bounds.
BOUNDS: Dict[str, Tuple[ReferenceBound, ...]] = {
    "table4": TABLE4_BOUNDS,
}

#: Experiments that produce fidelity metrics at all.
SCORED_EXPERIMENTS = tuple(sorted(set(REFERENCES) | set(BOUNDS)))


def _series_metrics(series: ReferenceSeries, matrix) -> List[FidelityMetric]:
    """Score a gain matrix against one figure's reference series."""
    metrics: List[FidelityMetric] = []
    for benchmark, paper in series.values.items():
        if benchmark == AGGREGATE_MEAN:
            measured = matrix.mean_gain(series.policy, series.metric)
        elif benchmark == AGGREGATE_MAX:
            measured = matrix.max_gain(series.policy, series.metric)
        else:
            measured = matrix.gain(benchmark, series.policy, series.metric)
        abs_error = abs(measured - paper)
        metrics.append(
            FidelityMetric(
                figure=series.figure,
                metric=series.metric,
                policy=series.policy,
                benchmark=benchmark,
                paper=paper,
                measured=measured,
                abs_error=abs_error,
                tolerance_pp=series.tolerance_pp,
                within=abs_error <= series.tolerance_pp,
            )
        )
    return metrics


def _row_metrics(series: ReferenceSeries, rows) -> List[FidelityMetric]:
    """Score attribute-per-row experiment data (Table 5) against *series*."""
    by_benchmark = {
        row.benchmark: row for row in rows if row.policy == series.policy
    }
    metrics: List[FidelityMetric] = []
    for benchmark, paper in series.values.items():
        row = by_benchmark.get(benchmark)
        if row is None:
            continue
        measured = getattr(row, series.metric)
        abs_error = abs(measured - paper)
        metrics.append(
            FidelityMetric(
                figure=series.figure,
                metric=series.metric,
                policy=series.policy,
                benchmark=benchmark,
                paper=paper,
                measured=measured,
                abs_error=abs_error,
                tolerance_pp=series.tolerance_pp,
                within=abs_error <= series.tolerance_pp,
            )
        )
    return metrics


def _bound_metrics(bound: ReferenceBound, rows) -> List[FidelityMetric]:
    """Score per-benchmark rows against one directional claim."""
    metrics: List[FidelityMetric] = []
    for row in rows:
        measured = getattr(row, bound.metric)
        overshoot_lo = (bound.lo - measured) if bound.lo is not None else 0.0
        overshoot_hi = (measured - bound.hi) if bound.hi is not None else 0.0
        abs_error = max(0.0, overshoot_lo, overshoot_hi)
        violated = bound.lo if overshoot_lo >= overshoot_hi else bound.hi
        nearest = violated if violated is not None else 0.0
        metrics.append(
            FidelityMetric(
                figure=bound.figure,
                metric=bound.metric,
                policy="Compiler",
                benchmark=row.benchmark,
                paper=nearest,
                measured=measured,
                abs_error=abs_error,
                tolerance_pp=0.0,
                within=abs_error == 0.0,
            )
        )
    return metrics


def fidelity_metrics(report) -> List[FidelityMetric]:
    """All fidelity scores for one
    :class:`~repro.harness.experiments.ExperimentReport`.

    Experiments without encoded references (table1, fig6-8, table6, ...)
    return an empty list — they are benchmarked for timing only.
    """
    experiment_id = report.experiment_id
    metrics: List[FidelityMetric] = []
    for series in REFERENCES.get(experiment_id, ()):
        if experiment_id in ("fig3", "fig4", "fig5"):
            metrics.extend(_series_metrics(series, report.data))
        else:
            metrics.extend(_row_metrics(series, report.data))
    for bound in BOUNDS.get(experiment_id, ()):
        metrics.extend(_bound_metrics(bound, report.data))
    return metrics
