"""Reproduce paper Table 1: communication vs computation energy."""

from repro.harness import run_experiment

from conftest import SHARED_RUNNER, record_report


def test_table1_technology_trend(benchmark):
    report = benchmark.pedantic(
        lambda: run_experiment("table1", SHARED_RUNNER),
        rounds=1, iterations=1,
    )
    record_report("table1", report.text)
    nodes = {node.label: node for node in report.data}
    # The headline motivation numbers, verbatim from the paper.
    assert nodes["40nm HP"].sram_load_over_fma == 1.55
    assert nodes["10nm HP"].sram_load_over_fma == 5.75
    assert nodes["10nm LP"].sram_load_over_fma == 5.77
