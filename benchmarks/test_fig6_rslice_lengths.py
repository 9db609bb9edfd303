"""Reproduce paper Figure 6: RSlice length distributions."""

from repro.harness import run_experiment

from conftest import SHARED_RUNNER, record_report


def test_fig6_rslice_lengths(benchmark):
    report = benchmark.pedantic(
        lambda: run_experiment("fig6", SHARED_RUNNER), rounds=1, iterations=1
    )
    record_report("fig6", report.text)
    histograms = {h.benchmark: h for h in report.data}

    # "78.32% of the RSlices have a length less than 10 instructions";
    # the reproduction's suite is similarly short-slice-dominated.
    all_lengths = [l for h in histograms.values() for l in h.lengths]
    short_share = sum(1 for l in all_lengths if l < 10) / len(all_lengths)
    assert short_share > 0.6

    # bfs has the shortest slices; sr's are mid-length (paper Fig 6j/6k).
    assert histograms["bfs"].max_length <= 3
    assert 4 <= histograms["sr"].max_length <= 10
    # Nothing pathological: the paper saw only 0.09% above 50.
    assert max(all_lengths) <= 50
