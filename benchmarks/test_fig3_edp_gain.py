"""Reproduce paper Figure 3: EDP gain under amnesic execution.

Headline shapes asserted (paper section 5.1 / 7):
* every responsive benchmark shows double-digit gain under its best
  policy except the deliberately marginal rt/bfs/sr class;
* FLC >= LLC on every benchmark (probe-cost asymmetry);
* Compiler degrades sr while FLC does not (the probabilistic model's
  blind spot);
* Oracle >= C-Oracle >= 0-ish everywhere.
"""

from repro.harness import run_experiment
from repro.workloads.suite import RESPONSIVE

from conftest import SHARED_RUNNER, record_report


def test_fig3_edp_gain(benchmark):
    report = benchmark.pedantic(
        lambda: run_experiment("fig3", SHARED_RUNNER), rounds=1, iterations=1
    )
    record_report("fig3", report.text)
    matrix = report.data

    for bench in RESPONSIVE:
        assert matrix.gain(bench, "FLC") >= matrix.gain(bench, "LLC") - 0.5, bench
        assert matrix.gain(bench, "Oracle") >= matrix.gain(bench, "C-Oracle") - 0.5, bench

    # The sr inversion: always-firing recomputation hurts, FLC does not.
    assert matrix.gain("sr", "Compiler") < 0
    assert matrix.gain("sr", "FLC") > 0

    # Best case and mean, roughly in the paper's league (87% / 24.92%).
    assert matrix.max_gain("Compiler") > 60
    assert matrix.mean_gain("Compiler") > 15
