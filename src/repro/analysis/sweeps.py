"""Design-space sweeps: technology and cache-capacity sensitivity.

Complements the break-even bisection (:mod:`repro.analysis.breakeven`)
with the two other axes the paper's motivation (section 1, Table 1) and
future-work discussion imply:

* :func:`memory_energy_sweep` — scale every memory level's energy
  relative to compute, replaying the Table 1 trend (communication
  getting relatively dearer with technology scaling);
* :func:`cache_capacity_sweep` — scale the cache geometry, moving the
  workload's residence profile across L1/L2/MEM and with it the
  recomputation margin.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List

from ..compiler.amnesic_pass import PassOptions
from ..core.execution import compare
from ..energy.model import EnergyModel
from ..isa.program import Program
from ..machine.config import CacheGeometry, LevelParams, MachineConfig
from ..machine.cpu import DEFAULT_MAX_INSTRUCTIONS


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One configuration of a sweep and its measured gain."""

    parameter: float
    edp_gain_percent: float
    energy_gain_percent: float
    time_gain_percent: float


def _measure(
    program: Program,
    model: EnergyModel,
    policy: str,
    options: PassOptions,
    parameter: float,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
) -> SweepPoint:
    """One sweep configuration, measured as a full policy comparison."""
    comparison = compare(
        program, policy, model, options, max_instructions=max_instructions
    )
    return SweepPoint(
        parameter=parameter,
        edp_gain_percent=comparison.edp_gain_percent,
        energy_gain_percent=comparison.energy_gain_percent,
        time_gain_percent=comparison.time_gain_percent,
    )


def scaled_memory_config(config: MachineConfig, factor: float) -> MachineConfig:
    """Scale every memory level's (read/write) energy by *factor*."""

    def scale(params: LevelParams) -> LevelParams:
        return LevelParams(
            read_energy_nj=params.read_energy_nj * factor,
            write_energy_nj=params.write_energy_nj * factor,
            latency_ns=params.latency_ns,
        )

    return dataclasses.replace(
        config,
        l1_params=scale(config.l1_params),
        l2_params=scale(config.l2_params),
        mem_params=scale(config.mem_params),
    )


def memory_energy_sweep(
    program: Program,
    base_model: EnergyModel,
    factors: Iterable[float] = (0.25, 0.5, 1.0, 2.0, 4.0),
    policy: str = "C-Oracle",
    options: PassOptions = PassOptions(),
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
) -> List[SweepPoint]:
    """Gains as communication energy scales (Table 1's trend axis)."""
    points = []
    for factor in factors:
        model = EnergyModel(
            epi=base_model.epi,
            config=scaled_memory_config(base_model.config, factor),
        )
        points.append(
            _measure(program, model, policy, options, parameter=factor,
                     max_instructions=max_instructions)
        )
    return points


def scaled_cache_config(config: MachineConfig, factor: float) -> MachineConfig:
    """Scale both caches' line counts by *factor* (min 1 set)."""

    def scale(geometry: CacheGeometry) -> CacheGeometry:
        lines = max(
            geometry.associativity,
            int(geometry.total_lines * factor)
            // geometry.associativity
            * geometry.associativity,
        )
        return CacheGeometry(
            total_lines=lines,
            associativity=geometry.associativity,
            line_words=geometry.line_words,
        )

    return dataclasses.replace(
        config,
        l1_geometry=scale(config.l1_geometry),
        l2_geometry=scale(config.l2_geometry),
    )


def cache_capacity_sweep(
    program: Program,
    base_model: EnergyModel,
    factors: Iterable[float] = (0.5, 1.0, 2.0, 4.0),
    policy: str = "FLC",
    options: PassOptions = PassOptions(),
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
) -> List[SweepPoint]:
    """Gains as cache capacity scales.

    Bigger caches pull the swapped loads closer (less to win), smaller
    caches push them out (more to win) — the residence knob behind the
    paper's Table 5.
    """
    points = []
    for factor in factors:
        model = EnergyModel(
            epi=base_model.epi,
            config=scaled_cache_config(base_model.config, factor),
        )
        points.append(
            _measure(program, model, policy, options, parameter=factor,
                     max_instructions=max_instructions)
        )
    return points
