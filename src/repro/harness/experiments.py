"""Experiment registry: one entry per paper table/figure.

Each experiment takes a :class:`~repro.harness.runner.SuiteRunner` and
returns a printable report plus structured data, so the benchmark
harness (``benchmarks/``) and EXPERIMENTS.md generation share one
implementation.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict

from ..analysis.breakdown import breakdown_table, render_breakdown
from ..analysis.breakeven import find_breakeven
from ..analysis.gains import METRIC_EDP, METRIC_ENERGY, METRIC_TIME, GainMatrix
from ..analysis.histograms import (
    locality_histogram,
    nonrecomputable_share,
    render_length_histogram,
    render_locality_histogram,
    render_nc_table,
    slice_length_histogram,
)
from ..analysis.memory_profile import memory_profile_table, render_memory_profile
from ..analysis.tables import render_table
from ..energy.tech import TABLE1_NODES
from ..workloads.suite import RESPONSIVE
from .runner import SuiteRunner


@dataclasses.dataclass
class ExperimentReport:
    """One regenerated table/figure."""

    experiment_id: str
    title: str
    text: str
    data: object


# ----------------------------------------------------------------------
# Table 1: technology trend (static data, no simulation needed).
# ----------------------------------------------------------------------
def table1_technology_trend(runner: SuiteRunner) -> ExperimentReport:
    """Communication vs computation energy across nodes (paper Table 1)."""
    headers = ["node", "voltage (V)", "SRAM-load / FMA", "off-chip / FMA"]
    rows = [
        [node.label, node.operating_voltage_v, node.sram_load_over_fma,
         node.offchip_load_over_fma]
        for node in TABLE1_NODES
    ]
    return ExperimentReport(
        "table1", "Communication vs computation energy",
        render_table(headers, rows, title="Table 1"), TABLE1_NODES,
    )


# ----------------------------------------------------------------------
# Figures 3-5: gains per policy.
# ----------------------------------------------------------------------
def _gain_report(runner: SuiteRunner, metric: str, experiment_id: str,
                 title: str) -> ExperimentReport:
    matrix = GainMatrix(runner.responsive_results())
    return ExperimentReport(experiment_id, title, matrix.render(metric, title), matrix)


def fig3_edp_gain(runner: SuiteRunner) -> ExperimentReport:
    """EDP gain under amnesic execution (paper Figure 3)."""
    return _gain_report(runner, METRIC_EDP, "fig3", "Figure 3: EDP gain (%)")


def fig4_energy_gain(runner: SuiteRunner) -> ExperimentReport:
    """Energy gain (paper Figure 4)."""
    return _gain_report(runner, METRIC_ENERGY, "fig4", "Figure 4: energy gain (%)")


def fig5_time_gain(runner: SuiteRunner) -> ExperimentReport:
    """Execution-time reduction (paper Figure 5)."""
    return _gain_report(runner, METRIC_TIME, "fig5", "Figure 5: time reduction (%)")


# ----------------------------------------------------------------------
# Table 4: instruction mix and energy breakdown.
# ----------------------------------------------------------------------
def table4_breakdown(runner: SuiteRunner) -> ExperimentReport:
    """Dynamic instruction mix / energy breakdown (paper Table 4)."""
    rows = breakdown_table(runner.responsive_results(), policy="Compiler")
    return ExperimentReport(
        "table4", "Instruction mix and energy breakdown",
        render_breakdown(rows, title="Table 4 (Compiler policy)"), rows,
    )


# ----------------------------------------------------------------------
# Table 5: memory access profile of swapped loads.
# ----------------------------------------------------------------------
def table5_memory_profile(runner: SuiteRunner) -> ExperimentReport:
    """Service-level profile of swapped loads (paper Table 5)."""
    rows = memory_profile_table(runner.responsive_results())
    return ExperimentReport(
        "table5", "Memory access profile of swapped loads",
        render_memory_profile(rows, title="Table 5"), rows,
    )


# ----------------------------------------------------------------------
# Figure 6: slice-length histograms.
# ----------------------------------------------------------------------
def fig6_slice_lengths(runner: SuiteRunner) -> ExperimentReport:
    """Instruction count per recomputed RSlice (paper Figure 6)."""
    histograms = []
    parts = ["Figure 6: RSlice length distributions (Compiler policy)"]
    results = runner.responsive_results()  # batch: honours runner.jobs
    for benchmark in RESPONSIVE:
        comparison = results[benchmark]["Compiler"]
        histogram = slice_length_histogram(benchmark, comparison.compilation)
        histograms.append(histogram)
        parts.append(render_length_histogram(histogram))
    overall = [length for h in histograms for length in h.lengths]
    short = sum(1 for length in overall if length < 10) / max(len(overall), 1)
    parts.append(f"overall: {100 * short:.1f}% of RSlices shorter than 10 instructions")
    return ExperimentReport("fig6", "RSlice lengths", "\n\n".join(parts), histograms)


# ----------------------------------------------------------------------
# Figure 7: non-recomputable leaf inputs.
# ----------------------------------------------------------------------
def fig7_nonrecomputable(runner: SuiteRunner) -> ExperimentReport:
    """% RSlices with non-recomputable leaf inputs (paper Figure 7)."""
    results = runner.responsive_results()
    shares = [
        nonrecomputable_share(
            benchmark, results[benchmark]["Compiler"].compilation
        )
        for benchmark in RESPONSIVE
    ]
    return ExperimentReport(
        "fig7", "RSlices with non-recomputable leaf inputs",
        render_nc_table(shares, title="Figure 7"), shares,
    )


# ----------------------------------------------------------------------
# Figure 8: value locality of swapped loads.
# ----------------------------------------------------------------------
def fig8_value_locality(runner: SuiteRunner) -> ExperimentReport:
    """Value locality of swapped loads (paper Figure 8)."""
    histograms = []
    parts = ["Figure 8: value locality of swapped loads (Compiler policy)"]
    results = runner.responsive_results()
    for benchmark in RESPONSIVE:
        histogram = locality_histogram(benchmark, results[benchmark]["Compiler"])
        histograms.append(histogram)
        parts.append(render_locality_histogram(histogram))
    return ExperimentReport("fig8", "Value locality", "\n\n".join(parts), histograms)


# ----------------------------------------------------------------------
# Table 6: break-even R multipliers.
# ----------------------------------------------------------------------
def table6_breakeven(runner: SuiteRunner, benchmarks=RESPONSIVE,
                     max_factor: float = 128.0) -> ExperimentReport:
    """Break-even compute/communication ratio per benchmark (Table 6).

    Routed through the runner's caches: the kernel instantiation is the
    same memoised :meth:`~repro.harness.runner.SuiteRunner.program` the
    other experiments share, and the profiling run is lifted from the
    cached all-policy comparison instead of being redone per benchmark
    (the bisection still recompiles per probed factor — the factor
    scales EPI, which moves compile-time costs but not the trace).
    """
    results = []
    all_comparisons = runner.results(benchmarks)
    for benchmark in benchmarks:
        program = runner.program(benchmark)
        comparisons = all_comparisons[benchmark]
        profile = next(iter(comparisons.values())).compilation.profile
        results.append(
            find_breakeven(
                benchmark, program, runner.model,
                max_factor=max_factor, profile=profile,
            )
        )
    headers = ["bench", "R_breakeven (normalized)", "gain@default %", "converged"]
    rows = [
        [r.benchmark, r.breakeven_factor, r.gain_at_default_percent, str(r.converged)]
        for r in results
    ]
    return ExperimentReport(
        "table6", "Break-even point (C-Oracle)",
        render_table(headers, rows, title="Table 6"), results,
    )


# ----------------------------------------------------------------------
# Sections 3.4/5.4: storage sizing.
# ----------------------------------------------------------------------
def storage_sizing(runner: SuiteRunner) -> ExperimentReport:
    """Amnesic structure demand vs the paper's section 3.4 bounds."""
    from ..analysis.storage import observed_utilisation

    rows = []
    results = runner.responsive_results()
    for benchmark in RESPONSIVE:
        comparison = results[benchmark]["Compiler"]
        utilisation = observed_utilisation(
            comparison.compilation.binary, comparison.amnesic.cpu
        )
        bounds = utilisation.bounds
        rows.append(
            [benchmark, utilisation.hist_high_water, bounds.hist_entries,
             utilisation.sfile_high_water, bounds.sfile_entries,
             utilisation.ibuff_high_water, bounds.ibuff_entries]
        )
    text = render_table(
        ["bench", "Hist hw", "Hist bound", "SFile hw", "SFile bound",
         "IBuff hw", "IBuff bound"],
        rows, title="Storage sizing (observed high-water vs paper 3.4 bounds)",
    )
    return ExperimentReport("storage", "Storage sizing", text, rows)


# ----------------------------------------------------------------------
# Sections 5.1/7: full-suite selection.
# ----------------------------------------------------------------------
def suite_selection(runner: SuiteRunner) -> ExperimentReport:
    """Best-policy EDP gain over all 33 benchmarks (the '11 of 33' claim)."""
    from ..workloads.suite import all_specs

    rows = []
    full_results = runner.full_suite_results()
    for spec in all_specs():
        results = full_results[spec.name]
        best = max(r.edp_gain_percent for r in results.values())
        rows.append(
            [spec.name, spec.suite, "yes" if spec.responsive else "", best]
        )
    text = render_table(
        ["bench", "suite", "responsive", "best EDP gain %"],
        rows, title="Suite selection (all 33 benchmarks)",
    )
    over_10 = [row[0] for row in rows if row[3] > 10]
    text += f"\n\n>10% potential: {sorted(over_10)}"
    return ExperimentReport("suite", "Full-suite selection", text, rows)


# ----------------------------------------------------------------------
# Registry.
# ----------------------------------------------------------------------
EXPERIMENTS: Dict[str, Callable[[SuiteRunner], ExperimentReport]] = {
    "table1": table1_technology_trend,
    "fig3": fig3_edp_gain,
    "fig4": fig4_energy_gain,
    "fig5": fig5_time_gain,
    "table4": table4_breakdown,
    "table5": table5_memory_profile,
    "fig6": fig6_slice_lengths,
    "fig7": fig7_nonrecomputable,
    "fig8": fig8_value_locality,
    "table6": table6_breakeven,
    "storage": storage_sizing,
    "suite": suite_selection,
}


def run_experiment(experiment_id: str, runner: SuiteRunner) -> ExperimentReport:
    """Run one registered experiment."""
    from ..telemetry.runtime import get_telemetry

    try:
        experiment = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    with get_telemetry().span("experiment", id=experiment_id):
        return experiment(runner)


# ----------------------------------------------------------------------
# Machine-readable experiment output (``--format json``).
# ----------------------------------------------------------------------
def _jsonable_data(value):
    """Best-effort JSON projection of an experiment's ``data`` payload."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _jsonable_data(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {
            str(getattr(key, "value", key)): _jsonable_data(item)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable_data(item) for item in value]
    enum_value = getattr(value, "value", None)
    if isinstance(enum_value, (str, int, float)):
        return enum_value
    return str(value)


def report_payload(report: ExperimentReport) -> dict:
    """An :class:`ExperimentReport` as a JSON-ready dict.

    Gain matrices are projected onto all three metrics (so one
    ``repro experiment fig3 --format json`` carries the EDP, energy,
    and time axes); dataclass rows become plain dicts; anything else
    falls back to a structural best effort.  The rendered text rides
    along so scripted consumers can still show the human table.
    """
    from ..analysis.gains import _METRIC_ACCESSOR

    data = report.data
    if isinstance(data, GainMatrix):
        payload: object = {
            "policies": list(data.policies),
            "gains_percent": {
                metric: {
                    benchmark: {
                        policy: data.gain(benchmark, policy, metric)
                        for policy in data.policies
                    }
                    for benchmark in data.benchmarks()
                }
                for metric in _METRIC_ACCESSOR
            },
        }
    else:
        payload = _jsonable_data(data)
    return {
        "experiment_id": report.experiment_id,
        "title": report.title,
        "data": payload,
        "text": report.text,
    }
