"""Design-space sweeps."""

import dataclasses

import pytest

from repro.analysis.sweeps import (
    SweepPoint,
    cache_capacity_sweep,
    memory_energy_sweep,
    scaled_cache_config,
    scaled_memory_config,
)
from repro.core.amnesic_cpu import AmnesicCPU
from repro.energy import EPITable, EnergyModel
from repro.machine import CPU

from ..conftest import build_spill_kernel, tiny_config


def make_model():
    return EnergyModel(epi=EPITable.default(), config=tiny_config())


def test_scaled_memory_config():
    config = scaled_memory_config(tiny_config(), 2.0)
    assert config.mem_params.read_energy_nj == 2 * 52.14
    assert config.l1_params.latency_ns == 3.66  # latency untouched
    assert config.l1_geometry == tiny_config().l1_geometry


def test_scaled_cache_config_respects_associativity():
    config = scaled_cache_config(tiny_config(), 0.1)
    assert config.l1_geometry.total_lines >= config.l1_geometry.associativity
    assert config.l1_geometry.total_lines % config.l1_geometry.associativity == 0
    doubled = scaled_cache_config(tiny_config(), 2.0)
    assert doubled.l1_geometry.total_lines == 2 * tiny_config().l1_geometry.total_lines


def test_sweep_point_is_immutable():
    point = SweepPoint(parameter=1.0, edp_gain_percent=2.0,
                       energy_gain_percent=3.0, time_gain_percent=4.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        point.parameter = 9.0


@pytest.mark.integration
def test_sweep_honours_max_instructions():
    """The instruction budget reaches the underlying runs."""
    program = build_spill_kernel(iterations=12, chain=2, gap=8)
    with pytest.raises(Exception, match="[Ii]nstruction"):
        memory_energy_sweep(
            program, make_model(), factors=(1.0,), max_instructions=10
        )


@pytest.mark.integration
def test_memory_energy_sweep_trend():
    """Dearer communication -> bigger recomputation margin."""
    program = build_spill_kernel(iterations=12, chain=2, gap=8)
    points = memory_energy_sweep(
        program, make_model(), factors=(0.5, 1.0, 4.0)
    )
    assert [p.parameter for p in points] == [0.5, 1.0, 4.0]
    assert points[-1].edp_gain_percent >= points[0].edp_gain_percent


@pytest.mark.integration
def test_cache_capacity_sweep_runs():
    program = build_spill_kernel(iterations=10, chain=2, gap=8)
    points = cache_capacity_sweep(program, make_model(), factors=(1.0, 4.0))
    assert [p.parameter for p in points] == [1.0, 4.0]


@pytest.mark.integration
def test_each_point_runs_classic_once(monkeypatch):
    """The profiling run is the classic baseline; nothing re-runs it."""
    classic_runs = []
    original = CPU.run

    def counting_run(cpu):
        if not isinstance(cpu, AmnesicCPU):
            classic_runs.append(cpu)
        return original(cpu)

    monkeypatch.setattr(CPU, "run", counting_run)
    program = build_spill_kernel(iterations=10, chain=2, gap=8)
    points = memory_energy_sweep(program, make_model(), factors=(1.0, 4.0))
    assert len(points) == 2
    assert len(classic_runs) == 2
