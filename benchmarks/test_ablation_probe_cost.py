"""Ablation: the L2 probe overhead is "the main delimiter for LLC".

Re-running LLC with a hypothetical free probe must close (most of) the
FLC-LLC gap, isolating the probe cost as the cause rather than the
firing decisions themselves.
"""

import dataclasses

from repro.core.execution import run_amnesic
from repro.core.policies import Decision, LLCPolicy

from conftest import SHARED_RUNNER, record_report


class FreeProbeLLC(LLCPolicy):
    """LLC with magically free probes (ablation only)."""

    name = "LLC-free-probe"

    def decide(self, context):
        decision = super().decide(context)
        return dataclasses.replace(decision, probe_cost=None)


def measure(bench="is"):
    comparisons = SHARED_RUNNER.result(bench)
    classic = comparisons["FLC"].classic
    compilation = comparisons["FLC"].compilation
    free = run_amnesic(compilation, FreeProbeLLC(), SHARED_RUNNER.model)

    def gain(outcome):
        return 100 * (classic.edp - outcome.edp) / classic.edp

    return {
        "FLC": gain(comparisons["FLC"].amnesic),
        "LLC": gain(comparisons["LLC"].amnesic),
        "LLC-free-probe": gain(free),
    }


def test_probe_cost_is_the_llc_delimiter(benchmark):
    gains = benchmark.pedantic(measure, rounds=1, iterations=1)
    record_report(
        "ablation_probe_cost",
        "probe-cost ablation (is): "
        + "  ".join(f"{k}={v:.2f}%" for k, v in gains.items()),
    )
    assert gains["FLC"] > gains["LLC"]
    # Freeing the probe recovers most of the gap.
    gap = gains["FLC"] - gains["LLC"]
    recovered = gains["LLC-free-probe"] - gains["LLC"]
    assert recovered > 0.5 * gap
