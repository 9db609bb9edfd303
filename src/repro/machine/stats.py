"""Dynamic execution statistics gathered by the CPU interpreters.

:class:`RunStats` counts dynamic instructions by category, tracks the
fate of every load (serviced level, or swapped for recomputation), and
feeds the paper's Table 4 (instruction mix) and Table 5 (memory access
profile of swapped loads) analyses.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Dict

from ..isa.opcodes import Category
from .config import Level


@dataclasses.dataclass
class RunStats:
    """Counters for one program execution."""

    dynamic_instructions: int = 0
    by_category: Counter = dataclasses.field(default_factory=Counter)
    loads_performed: int = 0
    stores_performed: int = 0
    branches_taken: int = 0

    # Amnesic-only counters (stay zero under classic execution).
    rcmp_encountered: int = 0
    recomputations_fired: int = 0
    recomputations_skipped: int = 0
    recomputation_fallbacks: int = 0  # Hist overflow / missing checkpoint
    recomputation_aborts: int = 0  # faults during slice traversal (deferred)
    slice_instructions_executed: int = 0
    hist_reads: int = 0
    hist_writes: int = 0
    #: Residence level of v (under classic servicing) for every load that
    #: was actually swapped for recomputation - the paper's Table 5 rows.
    swapped_load_levels: Counter = dataclasses.field(default_factory=Counter)

    def count_instruction(self, category: Category) -> None:
        """Record one dynamic instruction of *category*."""
        self.dynamic_instructions += 1
        self.by_category[category] += 1

    def count_swapped_load(self, residence: Level) -> None:
        """Record a load swapped for recomputation and where v resided."""
        self.recomputations_fired += 1
        self.swapped_load_levels[residence] += 1

    # ------------------------------------------------------------------
    # Derived views.
    # ------------------------------------------------------------------
    def swapped_load_profile(self) -> Dict[Level, float]:
        """Fraction of swapped loads that resided at each level (Table 5)."""
        total = sum(self.swapped_load_levels.values())
        if not total:
            return {level: 0.0 for level in Level}
        return {
            level: self.swapped_load_levels.get(level, 0) / total for level in Level
        }

    def publish(self, registry, **labels) -> None:
        """Register every counter with a telemetry metrics registry.

        Scalar fields become ``runstats.<field>`` counters; the
        :class:`~collections.Counter` fields fan out into one labeled
        series per key (instruction category / residence level).  The
        extra *labels* (e.g. ``run="amnesic"``) separate classic,
        profiling, and amnesic executions in the registry.
        """
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, Counter):
                for key, count in value.items():
                    bucket = getattr(key, "value", key)
                    registry.counter(
                        f"runstats.{field.name}", bucket=str(bucket), **labels
                    ).inc(count)
            else:
                registry.counter(f"runstats.{field.name}", **labels).inc(value)
