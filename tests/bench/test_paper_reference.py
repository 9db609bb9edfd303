"""Fidelity scoring against the paper's encoded reference values."""

from types import SimpleNamespace

import pytest

from repro.bench.paper_reference import (
    AGGREGATE_MAX,
    AGGREGATE_MEAN,
    BOUNDS,
    FIG3_EDP,
    REFERENCES,
    SCORED_EXPERIMENTS,
    fidelity_metrics,
)


class FakeMatrix:
    """GainMatrix-shaped stub: every gain is the same constant."""

    def __init__(self, value: float):
        self.value = value

    def gain(self, benchmark, policy, metric):
        return self.value

    def mean_gain(self, policy, metric):
        return self.value

    def max_gain(self, policy, metric):
        return self.value


def matrix_report(experiment_id: str, value: float):
    return SimpleNamespace(experiment_id=experiment_id, data=FakeMatrix(value))


# ----------------------------------------------------------------------
# Series scoring (Figures 3-5).
# ----------------------------------------------------------------------
def test_fig3_scores_every_reference_benchmark_and_aggregates():
    metrics = fidelity_metrics(matrix_report("fig3", 30.0))
    assert len(metrics) == len(FIG3_EDP.values)
    benchmarks = {metric.benchmark for metric in metrics}
    assert {AGGREGATE_MEAN, AGGREGATE_MAX, "mcf", "sr"} <= benchmarks
    by_bench = {metric.benchmark: metric for metric in metrics}
    # cg paper 28, measured 30 -> 2pp off, well inside the 25pp band.
    assert by_bench["cg"].abs_error == pytest.approx(2.0)
    assert by_bench["cg"].within
    # is paper 87, measured 30 -> 57pp off, out of band.
    assert by_bench["is"].abs_error == pytest.approx(57.0)
    assert not by_bench["is"].within


def test_metric_key_is_stable_across_runs():
    (metric,) = [
        m for m in fidelity_metrics(matrix_report("fig4", 60.0))
        if m.benchmark == "mcf"
    ]
    assert metric.key == "fig4/energy/Compiler/mcf"


# ----------------------------------------------------------------------
# Row scoring (Table 5).
# ----------------------------------------------------------------------
def _table5_row(benchmark, policy, l1, l2, mem):
    return SimpleNamespace(
        benchmark=benchmark, policy=policy,
        l1_percent=l1, l2_percent=l2, mem_percent=mem,
    )


def test_table5_scores_matching_policy_rows_only():
    report = SimpleNamespace(
        experiment_id="table5",
        data=[
            _table5_row("mcf", "Compiler", 12.0, 11.0, 77.0),  # exact paper
            _table5_row("mcf", "FLC", 99.0, 0.5, 0.5),  # wrong policy
            _table5_row("bfs", "Compiler", 50.0, 0.0, 50.0),  # l1 48.4pp off
        ],
    )
    metrics = fidelity_metrics(report)
    # 3 levels x 2 Compiler rows; the FLC row is never scored.
    assert len(metrics) == 6
    mcf_l1 = next(
        m for m in metrics if m.benchmark == "mcf" and m.metric == "l1_percent"
    )
    assert mcf_l1.abs_error == pytest.approx(0.0)
    assert mcf_l1.within
    bfs_l1 = next(
        m for m in metrics if m.benchmark == "bfs" and m.metric == "l1_percent"
    )
    assert bfs_l1.abs_error == pytest.approx(48.4)
    assert not bfs_l1.within


# ----------------------------------------------------------------------
# Directional bounds (Table 4).
# ----------------------------------------------------------------------
def _table4_row(benchmark, instr, loads, hist):
    return SimpleNamespace(
        benchmark=benchmark,
        instruction_increase_percent=instr,
        load_decrease_percent=loads,
        amnesic_hist=hist,
    )


def test_table4_bounds_score_zero_error_inside_the_claim():
    report = SimpleNamespace(
        experiment_id="table4", data=[_table4_row("mcf", 12.0, 30.0, 4.0)]
    )
    metrics = fidelity_metrics(report)
    assert len(metrics) == len(BOUNDS["table4"])
    assert all(m.within and m.abs_error == 0.0 for m in metrics)


def test_table4_bounds_report_overshoot_distance():
    report = SimpleNamespace(
        experiment_id="table4",
        data=[_table4_row("is", -5.0, 30.0, 12.5)],  # instr below lo, hist over hi
    )
    by_metric = {m.metric: m for m in fidelity_metrics(report)}
    instr = by_metric["instruction_increase_percent"]
    assert not instr.within and instr.abs_error == pytest.approx(5.0)
    hist = by_metric["amnesic_hist"]
    assert not hist.within and hist.abs_error == pytest.approx(2.5)
    assert by_metric["load_decrease_percent"].within


# ----------------------------------------------------------------------
# Registry shape.
# ----------------------------------------------------------------------
def test_scored_experiments_cover_references_and_bounds():
    assert SCORED_EXPERIMENTS == ("fig3", "fig4", "fig5", "table4", "table5")
    assert set(REFERENCES) | set(BOUNDS) == set(SCORED_EXPERIMENTS)


def test_unscored_experiments_return_no_metrics():
    report = SimpleNamespace(experiment_id="table1", data=object())
    assert fidelity_metrics(report) == []
