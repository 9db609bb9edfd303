"""Reproduce paper Figure 4: energy gain under amnesic execution."""

from repro.analysis import METRIC_ENERGY
from repro.harness import run_experiment

from conftest import SHARED_RUNNER, record_report


def test_fig4_energy_gain(benchmark):
    report = benchmark.pedantic(
        lambda: run_experiment("fig4", SHARED_RUNNER), rounds=1, iterations=1
    )
    record_report("fig4", report.text)
    matrix = report.data
    # Energy gains track the EDP trend: memory-bound leaders win big.
    assert matrix.gain("is", "Compiler", METRIC_ENERGY) > 20
    assert matrix.gain("mcf", "Compiler", METRIC_ENERGY) > 15
    # EDP compounds energy and time: (1-edp) == (1-e)(1-t) must hold
    # identically for every cell.
    from repro.analysis import METRIC_TIME

    for bench in matrix.benchmarks():
        for policy in matrix.policies:
            edp = matrix.gain(bench, policy) / 100
            energy = matrix.gain(bench, policy, METRIC_ENERGY) / 100
            time = matrix.gain(bench, policy, METRIC_TIME) / 100
            assert abs((1 - edp) - (1 - energy) * (1 - time)) < 1e-9, (bench, policy)
