"""Reproduce paper Table 5: classic service profile of swapped loads."""

from repro.harness import run_experiment
from repro.workloads.suite import get

from conftest import SHARED_RUNNER, record_report


def test_table5_memory_profile(benchmark):
    report = benchmark.pedantic(
        lambda: run_experiment("table5", SHARED_RUNNER), rounds=1, iterations=1
    )
    record_report("table5", report.text)
    rows = {(row.benchmark, row.policy): row for row in report.data}

    # Per-benchmark shape checks against the calibration targets: the
    # dominant service level of the paper's Table 5 must dominate here.
    for bench in ("mcf", "sx", "cg", "is", "ca", "fs", "fe", "rt", "bp", "bfs", "sr"):
        target = get(bench).calibration.swapped_levels
        measured = rows[(bench, "Compiler")].as_tuple()
        dominant = max(range(3), key=lambda i: target[i])
        assert max(range(3), key=lambda i: measured[i]) == dominant, (
            f"{bench}: dominant level {measured} vs target {target}"
        )

    # The memory-heavy and L1-heavy extremes, quantitatively.
    assert rows[("mcf", "Compiler")].mem_percent > 50
    assert rows[("bfs", "Compiler")].l1_percent > 90
    assert rows[("sr", "Compiler")].l1_percent > 80
