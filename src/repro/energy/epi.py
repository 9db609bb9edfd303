"""Energy-per-instruction (EPI) tables by instruction category.

The paper derives recomputation cost as "[instruction count per category]
x [EPI per category]" (section 3.1.1), with EPI estimates measured on a
Xeon Phi [Shao & Brooks, ISLPED'13] and fine-tuned with McPAT.  Those raw
measurements are not redistributable, so this module ships a calibrated
table whose *mean* non-memory EPI equals the paper's published value of
0.45 nJ — the only number the paper exposes (it anchors the default
compute/communication ratio ``R_default = 0.45/52.14`` of section 5.5).
The per-category spread follows the usual ordering (div >> fma > mul >
add > move) so slice costs still differentiate by instruction mix.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Mapping

from ..isa.opcodes import Category

#: The paper's mean energy of one non-memory instruction, in nanojoules.
MEAN_NONMEM_EPI_NJ = 0.45

#: Default per-category EPI (nJ).  The weighted spread straddles the
#: 0.45 nJ mean; ``EPITable.default()`` asserts the calibration.
_DEFAULT_EPI: Dict[Category, float] = {
    Category.INT_ALU: 0.30,
    Category.INT_MUL: 0.55,
    Category.INT_DIV: 1.60,
    Category.FP_ALU: 0.45,
    Category.FP_MUL: 0.60,
    Category.FP_DIV: 2.00,
    Category.FP_FMA: 0.75,
    Category.MOVE: 0.20,
    Category.BRANCH: 0.30,
    Category.JUMP: 0.25,
    Category.NOP: 0.10,
    Category.HALT: 0.0,
}

#: Execution latency in core cycles per category.  Simple ALU, moves and
#: control resolve in one cycle; multiplies are pipelined enough to look
#: single-cycle at this abstraction; divides and square roots are the
#: classic long-latency outliers.
LATENCY_CYCLES: Dict[Category, int] = {
    Category.INT_ALU: 1,
    Category.INT_MUL: 1,
    Category.INT_DIV: 8,
    Category.FP_ALU: 1,
    Category.FP_MUL: 1,
    Category.FP_DIV: 12,
    Category.FP_FMA: 1,
    Category.MOVE: 1,
    Category.BRANCH: 1,
    Category.JUMP: 1,
    Category.NOP: 1,
    Category.HALT: 1,
}

#: Categories included in the "Non-mem" mean (value-producing compute).
_NONMEM_CATEGORIES = tuple(c for c in Category if c.is_compute)

#: Typical dynamic instruction mix of the compute categories, used to
#: weight the mean when no workload-specific mix is supplied.  ALU and
#: data movement dominate real programs; divides are rare.  With the
#: default EPI values this mix averages to ~0.45 nJ, the paper's
#: published mean non-memory EPI.
TYPICAL_COMPUTE_MIX = {
    Category.INT_ALU: 0.38,
    Category.MOVE: 0.16,
    Category.FP_ALU: 0.14,
    Category.FP_MUL: 0.12,
    Category.INT_MUL: 0.10,
    Category.FP_FMA: 0.06,
    Category.INT_DIV: 0.02,
    Category.FP_DIV: 0.02,
}


@dataclasses.dataclass(frozen=True)
class EPITable:
    """Immutable category -> EPI(nJ) mapping with calibration helpers."""

    values: Mapping[Category, float]

    @classmethod
    def default(cls) -> "EPITable":
        """The calibrated default table (mean non-mem EPI = 0.45 nJ)."""
        return cls(dict(_DEFAULT_EPI))

    def epi(self, category: Category) -> float:
        """EPI of *category* in nanojoules."""
        try:
            return self.values[category]
        except KeyError:
            raise KeyError(
                f"category {category} has no EPI (memory instructions are "
                f"priced by the hierarchy, amnesic ones by the model)"
            ) from None

    def mean_nonmem(self, weights: Mapping[Category, float] | None = None) -> float:
        """Mix-weighted mean EPI over the compute categories.

        With *weights* (e.g. a measured dynamic instruction mix) the mean
        is weighted accordingly; the default weighting is
        :data:`TYPICAL_COMPUTE_MIX`, calibrated so the default table
        averages to the paper's 0.45 nJ.
        """
        categories: Iterable[Category] = _NONMEM_CATEGORIES
        if not weights:
            weights = TYPICAL_COMPUTE_MIX
        total = sum(weights.get(c, 0.0) for c in categories)
        if total <= 0:
            values = [self.values[c] for c in categories]
            return sum(values) / len(values)
        return (
            sum(self.values[c] * weights.get(c, 0.0) for c in categories) / total
        )

    def scaled_nonmem(self, factor: float) -> "EPITable":
        """A new table with every compute-category EPI multiplied by *factor*.

        This is the knob behind the paper's break-even analysis (Table 6):
        scaling R = EPI_nonmem / EPI_load by scaling the numerator.
        """
        if factor < 0:
            raise ValueError("EPI scale factor must be non-negative")
        scaled = {
            category: (value * factor if category.is_compute else value)
            for category, value in self.values.items()
        }
        return EPITable(scaled)
