"""Reproduce paper Figure 5: % reduction in execution time."""

from repro.analysis import METRIC_TIME
from repro.harness import run_experiment

from conftest import SHARED_RUNNER, record_report


def test_fig5_time_gain(benchmark):
    report = benchmark.pedantic(
        lambda: run_experiment("fig5", SHARED_RUNNER), rounds=1, iterations=1
    )
    record_report("fig5", report.text)
    matrix = report.data
    # "Most of the time, the reduction in EDP comes from a reduction in
    # both energy and execution time" (section 5.1).
    both_improve = sum(
        1
        for bench in matrix.benchmarks()
        if matrix.gain(bench, "FLC", METRIC_TIME) > 0
    )
    assert both_improve >= 8
    assert matrix.gain("is", "Compiler", METRIC_TIME) > 20
