"""Energy and time accounting for one program execution.

:class:`EnergyAccount` accumulates energy by *group* — the groups are the
columns of the paper's Table 4 energy breakdown (Load / Store / Non-mem /
Hist Read) plus the amnesic control overheads — and total execution time,
from which energy-delay product (EDP) follows.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

#: Accounting groups.  ``AMNESIC`` covers RCMP/REC/RTN control overhead
#: and probe energy; ``HIST`` covers history-table reads and writes.
GROUP_LOAD = "load"
GROUP_STORE = "store"
GROUP_NONMEM = "nonmem"
GROUP_HIST = "hist"
GROUP_AMNESIC = "amnesic"
GROUP_WRITEBACK = "writeback"

ALL_GROUPS = (
    GROUP_LOAD,
    GROUP_STORE,
    GROUP_NONMEM,
    GROUP_HIST,
    GROUP_AMNESIC,
    GROUP_WRITEBACK,
)


@dataclasses.dataclass(frozen=True)
class Cost:
    """An (energy, time) pair; additive."""

    energy_nj: float
    time_ns: float

    def __add__(self, other: "Cost") -> "Cost":
        return Cost(self.energy_nj + other.energy_nj, self.time_ns + other.time_ns)

    def scaled(self, factor: float) -> "Cost":
        return Cost(self.energy_nj * factor, self.time_ns * factor)


ZERO_COST = Cost(0.0, 0.0)


class EnergyAccount:
    """Accumulates energy per group and total time for one execution."""

    def __init__(self) -> None:
        self._energy_by_group: Dict[str, float] = {group: 0.0 for group in ALL_GROUPS}
        self._time_ns: float = 0.0

    def charge(self, group: str, cost: Cost) -> None:
        """Add *cost* under *group*; time always accumulates globally."""
        if group not in self._energy_by_group:
            raise KeyError(f"unknown accounting group {group!r}")
        self._energy_by_group[group] += cost.energy_nj
        self._time_ns += cost.time_ns

    def charge_energy_only(self, group: str, energy_nj: float) -> None:
        """Add energy with no time contribution (e.g. background writebacks)."""
        if group not in self._energy_by_group:
            raise KeyError(f"unknown accounting group {group!r}")
        self._energy_by_group[group] += energy_nj

    # ------------------------------------------------------------------
    # Totals and derived metrics.
    # ------------------------------------------------------------------
    @property
    def total_energy_nj(self) -> float:
        return sum(self._energy_by_group.values())

    @property
    def total_time_ns(self) -> float:
        return self._time_ns

    @property
    def edp(self) -> float:
        """Energy-delay product in nJ*ns (Gonzalez & Horowitz metric)."""
        return self.total_energy_nj * self._time_ns

    def breakdown(self) -> Dict[str, float]:
        """Copy of the energy-by-group mapping."""
        return dict(self._energy_by_group)

    def snapshot(self) -> Tuple[float, float]:
        """(total energy, total time) — cheap checkpoint for deltas."""
        return self.total_energy_nj, self._time_ns

    def __repr__(self) -> str:
        return (
            f"EnergyAccount(E={self.total_energy_nj:.2f}nJ, "
            f"T={self._time_ns:.2f}ns, EDP={self.edp:.2f})"
        )
