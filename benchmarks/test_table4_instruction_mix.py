"""Reproduce paper Table 4: instruction mix and energy breakdown."""

from repro.harness import run_experiment

from conftest import SHARED_RUNNER, record_report


def test_table4_breakdown(benchmark):
    report = benchmark.pedantic(
        lambda: run_experiment("table4", SHARED_RUNNER), rounds=1, iterations=1
    )
    record_report("table4", report.text)
    rows = {row.benchmark: row for row in report.data}

    for name, row in rows.items():
        # Recomputation replaces loads with extra instructions.
        assert row.instruction_increase_percent > 0, name
        assert row.load_decrease_percent > 0, name
        # "Amnesic execution reduces the energy consumed by load
        # instructions for all benchmarks" (section 5.2).
        assert row.amnesic_load < row.classic_load, name
        # "...while the energy consumed by Non-mem instructions
        # increases due to recomputation along RSlices."
        assert row.amnesic_nonmem >= row.classic_nonmem - 0.01, name

    # Hist reads are a small slice of amnesic energy (paper: 0-7.4%).
    for name, row in rows.items():
        assert row.amnesic_hist < 8.0, name
    # The most load-dominated classic profile belongs to `is`, the
    # benchmark the paper calls "the most responsive".
    assert rows["is"].classic_load > 40
