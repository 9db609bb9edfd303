"""EDP / energy / execution-time gain matrices (paper Figures 3-5).

A :class:`GainMatrix` holds, for each benchmark, the per-policy
:class:`~repro.core.execution.PolicyComparison` results, and projects
them onto the three y-axes the paper plots:

* Figure 3 — EDP gain (%), the headline result;
* Figure 4 — energy gain (%);
* Figure 5 — % reduction in execution time.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence

from ..core.execution import PolicyComparison
from ..core.policies import POLICY_NAMES
from .tables import render_table

#: The three metrics, keyed by the figure that plots them.
METRIC_EDP = "edp"
METRIC_ENERGY = "energy"
METRIC_TIME = "time"

_METRIC_ACCESSOR = {
    METRIC_EDP: lambda comparison: comparison.edp_gain_percent,
    METRIC_ENERGY: lambda comparison: comparison.energy_gain_percent,
    METRIC_TIME: lambda comparison: comparison.time_gain_percent,
}


@dataclasses.dataclass
class GainMatrix:
    """Per-benchmark, per-policy gains over classic execution."""

    results: Dict[str, Dict[str, PolicyComparison]]
    policies: Sequence[str] = POLICY_NAMES

    def gain(self, benchmark: str, policy: str, metric: str = METRIC_EDP) -> float:
        """One gain value in percent (positive = amnesic wins)."""
        return _METRIC_ACCESSOR[metric](self.results[benchmark][policy])

    def row(self, benchmark: str, metric: str = METRIC_EDP) -> List[float]:
        return [self.gain(benchmark, policy, metric) for policy in self.policies]

    def benchmarks(self) -> List[str]:
        return list(self.results)

    # ------------------------------------------------------------------
    # Aggregates the paper quotes.
    # ------------------------------------------------------------------
    def mean_gain(self, policy: str = "Compiler", metric: str = METRIC_EDP) -> float:
        """Mean gain across benchmarks (paper: 24.92% over the 11)."""
        values = [self.gain(b, policy, metric) for b in self.results]
        return sum(values) / len(values) if values else 0.0

    def max_gain(self, policy: str = "Compiler", metric: str = METRIC_EDP) -> float:
        """Best-case gain (paper: up to 87%)."""
        return max((self.gain(b, policy, metric) for b in self.results), default=0.0)

    # ------------------------------------------------------------------
    # Rendering.
    # ------------------------------------------------------------------
    def render(self, metric: str = METRIC_EDP, title: str = "") -> str:
        headers = ["bench"] + list(self.policies)
        rows = [
            [benchmark] + self.row(benchmark, metric)
            for benchmark in self.results
        ]
        return render_table(headers, rows, title=title)
