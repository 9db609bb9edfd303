"""The profiling run doubles as the classic baseline.

`prepare_evaluation` and `compare` no longer run the classic program a
second time: the baseline outcome is the profiling CPU.  That is only
sound if tracing observes execution without changing it, on every
backend, down to the last register, memory word, energy group and
budget fault.
"""

import dataclasses

import pytest

from repro.core.backend import BACKENDS
from repro.core.execution import (
    classic_outcome,
    compare,
    prepare_evaluation,
    run_classic,
)
from repro.energy.tech import paper_energy_model
from repro.errors import ExecutionLimitExceeded
from repro.trace import profile_program
from repro.workloads.suite import REGISTRY

from ..conftest import build_spill_kernel


def outcome_state(outcome) -> tuple:
    cpu = outcome.cpu
    return (
        dataclasses.asdict(outcome.stats),
        outcome.account.breakdown(),
        outcome.energy_nj,
        outcome.time_ns,
        list(cpu.registers),
        cpu.memory.snapshot(),
        dataclasses.asdict(cpu.hierarchy.stats),
    )


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_profiled_baseline_equals_a_fresh_classic_run(backend):
    model = paper_energy_model()
    for name in REGISTRY.names():
        program = REGISTRY.get(name).instantiate(0.25)
        derived = classic_outcome(profile_program(program, model, backend=backend))
        fresh = run_classic(program, model, backend=backend)
        assert derived.label == fresh.label
        assert outcome_state(derived) == outcome_state(fresh), name


def test_prepared_baseline_is_the_profiling_run():
    setup = prepare_evaluation(build_spill_kernel(iterations=6, chain=3, gap=2))
    assert setup.classic.cpu is setup.probabilistic.profile.cpu
    assert setup.classic.stats is setup.probabilistic.profile.stats


def test_compare_profiles_once():
    result = compare(build_spill_kernel(iterations=6, chain=3, gap=2))
    assert result.classic.cpu is result.compilation.profile.cpu


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_budget_exhaustion_matches_run_classic(backend):
    program = REGISTRY.get("mcf").instantiate(0.25)
    model = paper_energy_model()
    budget = 1_000
    with pytest.raises(ExecutionLimitExceeded) as fresh:
        run_classic(program, model, max_instructions=budget, backend=backend)
    with pytest.raises(ExecutionLimitExceeded) as prepared:
        prepare_evaluation(program, model, max_instructions=budget, backend=backend)
    with pytest.raises(ExecutionLimitExceeded) as compared:
        compare(program, model=model, max_instructions=budget, backend=backend)
    assert str(prepared.value) == str(fresh.value) == str(compared.value)
    assert prepared.value.pc == fresh.value.pc == compared.value.pc
