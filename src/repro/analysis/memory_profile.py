"""Memory access profile of swapped loads (paper Table 5).

Table 5 reports, per benchmark and per policy, "the memory access
profile of load instructions **under classic execution**, which are
swapped for recomputation under Compiler, FLC, and LLC".  The set of
swapped loads differs per policy ("the set of RSlices recomputed by each
policy is different"): we take the slices that actually fired at least
once during the policy's run, and weight each by its static load's
classic-execution service histogram from the profiling run.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Dict, List, Sequence

from ..core.execution import PolicyComparison
from ..machine.config import Level
from .tables import render_table


@dataclasses.dataclass
class MemoryProfileRow:
    """Classic service-level split of one policy's swapped loads."""

    benchmark: str
    policy: str
    l1_percent: float
    l2_percent: float
    mem_percent: float
    swapped_slice_count: int

    def as_tuple(self):
        return (self.l1_percent, self.l2_percent, self.mem_percent)


def swapped_load_profile(
    benchmark: str, comparison: PolicyComparison
) -> MemoryProfileRow:
    """The Table 5 row for one (benchmark, policy) pair."""
    compilation = comparison.compilation
    amnesic_cpu = comparison.amnesic.cpu
    profiler = compilation.profile.loads

    counts: Counter = Counter()
    fired_slices = 0
    for rslice in compilation.rslices:
        # A slice participates if its RCMP recomputed at least once.
        slice_fired = _slice_fired(amnesic_cpu, rslice.slice_id)
        if not slice_fired:
            continue
        fired_slices += 1
        counts.update(profiler.per_load.get(rslice.load_pc, {}))

    total = sum(counts.values())
    if not total:
        return MemoryProfileRow(benchmark, comparison.policy, 0.0, 0.0, 0.0, 0)
    return MemoryProfileRow(
        benchmark=benchmark,
        policy=comparison.policy,
        l1_percent=100.0 * counts.get(Level.L1, 0) / total,
        l2_percent=100.0 * counts.get(Level.L2, 0) / total,
        mem_percent=100.0 * counts.get(Level.MEM, 0) / total,
        swapped_slice_count=fired_slices,
    )


def _slice_fired(amnesic_cpu, slice_id: int) -> bool:
    """Did this slice recompute at least once during the run?"""
    fired = getattr(amnesic_cpu, "fired_slice_ids", None)
    if fired is not None:
        return slice_id in fired
    # Conservative fallback: treat every embedded slice as swapped.
    return True


def memory_profile_table(
    results: Dict[str, Dict[str, PolicyComparison]],
    policies: Sequence[str] = ("Compiler", "FLC", "LLC"),
) -> List[MemoryProfileRow]:
    """All Table 5 rows for *results*."""
    rows = []
    for benchmark, by_policy in results.items():
        for policy in policies:
            rows.append(swapped_load_profile(benchmark, by_policy[policy]))
    return rows


def render_memory_profile(rows: List[MemoryProfileRow], title: str = "") -> str:
    headers = ["bench", "policy", "L1-hit%", "L2-hit%", "Mem-hit%", "#slices"]
    table_rows = [
        [
            row.benchmark,
            row.policy,
            row.l1_percent,
            row.l2_percent,
            row.mem_percent,
            row.swapped_slice_count,
        ]
        for row in rows
    ]
    return render_table(headers, table_rows, title=title)
