"""Reproduce paper Table 6: break-even R multipliers (C-Oracle).

Each benchmark's bisection recompiles and re-runs at every probed
factor, so this experiment runs at a reduced scale and coarse tolerance.
"""

from repro.harness import SuiteRunner
from repro.harness.experiments import table6_breakeven

from conftest import record_report

#: Bisection is expensive; a representative subset keeps the bench
#: tractable while spanning the paper's range (bfs lowest, mcf high).
SUBSET = ("mcf", "is", "bfs", "sr", "cg")


def test_table6_breakeven(benchmark):
    runner = SuiteRunner(scale=0.5)
    report = benchmark.pedantic(
        lambda: table6_breakeven(runner, benchmarks=SUBSET, max_factor=128.0),
        rounds=1, iterations=1,
    )
    record_report("table6", report.text)
    results = {r.benchmark: r for r in report.data}

    # Every profitable benchmark must tolerate a multi-x increase in R
    # before recomputation stops paying (paper: 3.89x .. 83x).
    for name in ("mcf", "is", "cg"):
        assert results[name].breakeven_factor > 2.0, name
    # bfs is the paper's most fragile benchmark (3.89x); ours is the
    # low-margin one too.
    profitable = [r for r in results.values() if r.gain_at_default_percent > 0]
    assert profitable
    lowest = min(profitable, key=lambda r: r.breakeven_factor)
    assert lowest.benchmark in ("bfs", "sr", "rt", "cg")
