"""Reproduce paper Figure 8: value locality of swapped loads.

Known deviation (see EXPERIMENTS.md): strict replay-verified slices keep
values stable between region rewrites, so MEM-heavy benchmarks measure
higher locality than the paper's unverified selection.  The outliers the
paper calls out (bfs, sr: high locality) still hold, and locality varies
across the suite.
"""

from repro.harness import run_experiment

from conftest import SHARED_RUNNER, record_report


def test_fig8_value_locality(benchmark):
    report = benchmark.pedantic(
        lambda: run_experiment("fig8", SHARED_RUNNER), rounds=1, iterations=1
    )
    record_report("fig8", report.text)
    histograms = {h.benchmark: h for h in report.data}

    # The paper's explicit high-locality outliers.
    assert histograms["bfs"].weighted_mean_percent() > 80
    assert histograms["sr"].weighted_mean_percent() > 80
    # Every histogram is a proper distribution.
    for name, histogram in histograms.items():
        assert abs(sum(histogram.fractions) - 1.0) < 1e-9, name
