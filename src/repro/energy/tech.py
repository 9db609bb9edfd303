"""Technology-node data and named machine setups.

Reproduces the paper's Table 1 (communication vs computation energy
across technology nodes, adapted from Keckler et al. [18]) and binds the
Table 3 simulated architecture to the default EPI table.
"""

from __future__ import annotations

import dataclasses
from typing import List

from ..machine.config import MachineConfig, default_config, paper_geometry
from .epi import EPITable
from .model import EnergyModel


@dataclasses.dataclass(frozen=True)
class TechnologyNode:
    """One row of paper Table 1.

    ``sram_load_over_fma`` is the energy of a 64-bit on-chip SRAM load
    normalised to a 64-bit double-precision FMA at this node — the
    paper's headline motivation metric.
    """

    name: str
    feature_nm: int
    variant: str  # "HP" (high performance) or "LP" (low power)
    operating_voltage_v: float
    sram_load_over_fma: float
    offchip_load_over_fma: float

    @property
    def label(self) -> str:
        return f"{self.feature_nm}nm {self.variant}"


#: Paper Table 1, plus the off-chip ratio quoted in section 1 ("off-chip
#: communication to main memory requires more than 50x computation energy
#: even at 40nm").
TABLE1_NODES: List[TechnologyNode] = [
    TechnologyNode(
        name="40nm", feature_nm=40, variant="HP", operating_voltage_v=0.90,
        sram_load_over_fma=1.55, offchip_load_over_fma=50.0,
    ),
    TechnologyNode(
        name="10nm-HP", feature_nm=10, variant="HP", operating_voltage_v=0.75,
        sram_load_over_fma=5.75, offchip_load_over_fma=180.0,
    ),
    TechnologyNode(
        name="10nm-LP", feature_nm=10, variant="LP", operating_voltage_v=0.65,
        sram_load_over_fma=5.77, offchip_load_over_fma=180.0,
    ),
]


def paper_energy_model(scaled: bool = True) -> EnergyModel:
    """The 22nm Table 3 machine bound to the default EPI table.

    With ``scaled=True`` (the harness default) the cache geometry is the
    16x-scaled variant documented in :mod:`repro.machine.config`; with
    ``scaled=False`` it is the literal 32KB/512KB paper geometry.
    """
    config: MachineConfig = default_config() if scaled else paper_geometry()
    return EnergyModel(epi=EPITable.default(), config=config)


def r_default(model: EnergyModel) -> float:
    """The paper's default compute/communication ratio R (section 5.5).

    ``R = EPI_nonmem / EPI_ld`` with EPI_ld the main-memory load energy:
    0.45 / 52.14 ~= 0.0086 for the default model.
    """
    return model.epi.mean_nonmem() / model.config.mem_params.read_energy_nj
