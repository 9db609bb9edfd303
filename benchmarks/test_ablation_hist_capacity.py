"""Ablation: history-table capacity sweep (paper sections 3.4/3.5).

Hist overflow may only cause fallbacks (lost opportunity), never wrong
results; gains must be monotone-ish in capacity and saturate well below
the paper's 600-entry bound.
"""

from repro.core.execution import run_amnesic

from conftest import SHARED_RUNNER, record_report

CAPACITIES = (1, 2, 8, 64, 600)


def measure(bench="sx"):
    comparisons = SHARED_RUNNER.result(bench)
    classic = comparisons["Compiler"].classic
    compilation = comparisons["Compiler"].compilation
    gains = {}
    for capacity in CAPACITIES:
        amnesic = run_amnesic(
            compilation, "Compiler", SHARED_RUNNER.model, hist_capacity=capacity
        )
        gains[capacity] = {
            "edp_gain": 100 * (classic.edp - amnesic.edp) / classic.edp,
            "fallbacks": amnesic.stats.recomputation_fallbacks,
        }
    return gains


def test_hist_capacity_sweep(benchmark):
    gains = benchmark.pedantic(measure, rounds=1, iterations=1)
    record_report(
        "ablation_hist_capacity",
        "hist capacity sweep (sx): "
        + "  ".join(
            f"{cap}: edp={g['edp_gain']:.2f}% fb={g['fallbacks']}"
            for cap, g in gains.items()
        ),
    )
    # Saturation: beyond a modest capacity nothing changes.
    assert gains[64]["edp_gain"] == gains[600]["edp_gain"]
    assert gains[600]["fallbacks"] == 0
    # Starved Hist falls back more and gains no more than the saturated
    # configuration.
    assert gains[1]["fallbacks"] >= gains[600]["fallbacks"]
    assert gains[1]["edp_gain"] <= gains[600]["edp_gain"] + 0.5
