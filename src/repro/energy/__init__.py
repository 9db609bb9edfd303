"""Energy and timing models: EPI tables, accounting, technology data."""

from .account import (
    ALL_GROUPS,
    GROUP_AMNESIC,
    GROUP_HIST,
    GROUP_LOAD,
    GROUP_NONMEM,
    GROUP_STORE,
    GROUP_WRITEBACK,
    ZERO_COST,
    Cost,
    EnergyAccount,
)
from .epi import MEAN_NONMEM_EPI_NJ, EPITable
from .model import IBUFF_ACCESS_NJ, SFILE_ACCESS_NJ, EnergyModel
from .tech import (
    TABLE1_NODES,
    TechnologyNode,
    paper_energy_model,
    r_default,
)

__all__ = [
    "ALL_GROUPS",
    "GROUP_AMNESIC",
    "GROUP_HIST",
    "GROUP_LOAD",
    "GROUP_NONMEM",
    "GROUP_STORE",
    "GROUP_WRITEBACK",
    "IBUFF_ACCESS_NJ",
    "MEAN_NONMEM_EPI_NJ",
    "SFILE_ACCESS_NJ",
    "TABLE1_NODES",
    "ZERO_COST",
    "Cost",
    "EPITable",
    "EnergyAccount",
    "EnergyModel",
    "TechnologyNode",
    "paper_energy_model",
    "r_default",
]
