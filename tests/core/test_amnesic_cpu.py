"""Amnesic CPU: firing, fallbacks, verification, state isolation."""

import pytest

from repro.compiler import compile_amnesic
from repro.core import AmnesicCPU, make_policy
from repro.core.execution import run_amnesic, run_classic
from repro.energy import EPITable, EnergyModel
from repro.errors import RecomputationMismatch
from repro.isa import Opcode

from ..conftest import build_accumulator_kernel, build_spill_kernel, tiny_config


def make_model():
    return EnergyModel(epi=EPITable.default(), config=tiny_config())


@pytest.fixture(scope="module")
def spill_compiled():
    model = make_model()
    program = build_spill_kernel(iterations=12, chain=4, gap=6)
    return model, program, compile_amnesic(program, model)


def test_compiler_policy_recomputes_and_verifies(spill_compiled):
    model, program, compilation = spill_compiled
    outcome = run_amnesic(compilation, "Compiler", model, verify=True)
    assert outcome.stats.recomputations_fired > 0
    assert outcome.stats.rcmp_encountered >= outcome.stats.recomputations_fired


def test_final_memory_identical_to_classic(spill_compiled):
    """Amnesic execution must be architecturally invisible."""
    model, program, compilation = spill_compiled
    classic = run_classic(program, model)
    for policy in ("Compiler", "FLC", "LLC", "C-Oracle"):
        amnesic = run_amnesic(compilation, policy, model)
        assert amnesic.cpu.memory.snapshot() == classic.cpu.memory.snapshot(), policy


def test_registers_match_classic(spill_compiled):
    model, program, compilation = spill_compiled
    classic = run_classic(program, model)
    amnesic = run_amnesic(compilation, "Compiler", model)
    assert amnesic.cpu.registers == classic.cpu.registers


def test_recompute_flag_cleared_after_run(spill_compiled):
    model, _, compilation = spill_compiled
    cpu = AmnesicCPU(compilation.binary, model, make_policy("Compiler"))
    cpu.run()
    assert not cpu.recompute
    assert cpu.renamer.live_mappings == 0


def test_verification_catches_corruption(spill_compiled):
    """Corrupting an embedded slice must raise RecomputationMismatch."""
    import copy

    model, program, compilation = spill_compiled
    binary = compilation.binary
    region = binary.program.slices[0]
    # Corrupt the first slice instruction's immediate, if it has one.
    from repro.isa import Imm, Instruction

    corrupted = copy.deepcopy(binary)
    for pc in range(region.start, region.end - 1):
        instruction = corrupted.program.instructions[pc]
        new_srcs = tuple(
            Imm(src.value + 1) if isinstance(src, Imm) else src
            for src in instruction.srcs
        )
        if new_srcs != instruction.srcs:
            corrupted.program.instructions[pc] = Instruction(
                instruction.opcode, dest=instruction.dest, srcs=new_srcs,
                leaf_id=instruction.leaf_id,
            )
            break
    else:
        pytest.skip("no immediate to corrupt in the first slice")
    cpu = AmnesicCPU(corrupted, model, make_policy("Compiler"), verify=True)
    with pytest.raises(RecomputationMismatch):
        cpu.run()


def test_hist_pressure_forces_fallback(spill_compiled):
    """With a 1-entry Hist, checkpoints evict each other -> fallbacks."""
    model, program, compilation = spill_compiled
    needs_hist = any(info.hist_leaf_ids for info in compilation.binary.slices.values())
    cpu = AmnesicCPU(
        compilation.binary, model, make_policy("Compiler"), hist_capacity=1
    )
    cpu.run()
    if needs_hist and len(compilation.binary.slices) > 1:
        assert cpu.stats.recomputation_fallbacks > 0
    # Fallbacks must still produce correct results (verify was on).


def test_sfile_too_small_forces_fallback(spill_compiled):
    model, program, compilation = spill_compiled
    demand = max(info.sreg_demand for info in compilation.binary.slices.values())
    if demand <= 1:
        pytest.skip("slices too small to exceed a 1-entry SFile")
    cpu = AmnesicCPU(
        compilation.binary, model, make_policy("Compiler"), sfile_capacity=1
    )
    cpu.run()
    assert cpu.stats.recomputations_fired == 0 or cpu.stats.recomputation_fallbacks > 0


def test_fired_loads_reduce_performed_loads(spill_compiled):
    model, program, compilation = spill_compiled
    classic = run_classic(program, model)
    amnesic = run_amnesic(compilation, "Compiler", model)
    fired = amnesic.stats.recomputations_fired
    assert amnesic.stats.loads_performed == classic.stats.loads_performed - fired


def test_dynamic_instructions_increase(spill_compiled):
    """Table 4's '% increase in dynamic instruction count'."""
    model, program, compilation = spill_compiled
    classic = run_classic(program, model)
    amnesic = run_amnesic(compilation, "Compiler", model)
    assert amnesic.stats.dynamic_instructions > classic.stats.dynamic_instructions


def test_hist_reads_charged_to_hist_group(spill_compiled):
    model, program, compilation = spill_compiled
    amnesic = run_amnesic(compilation, "Compiler", model)
    if amnesic.stats.hist_reads:
        assert amnesic.account.breakdown()["hist"] > 0


def test_accumulator_kernel_end_to_end():
    model = make_model()
    program = build_accumulator_kernel(iterations=12)
    compilation = compile_amnesic(program, model)
    classic = run_classic(program, model)
    amnesic = run_amnesic(compilation, "Compiler", model, verify=True)
    assert amnesic.cpu.memory.snapshot() == classic.cpu.memory.snapshot()


def test_rtn_outside_slice_faults(spill_compiled):
    model, _, compilation = spill_compiled
    from repro.errors import MachineFault

    cpu = AmnesicCPU(compilation.binary, model, make_policy("Compiler"))
    region = compilation.binary.program.slices[0]
    cpu.pc = region.end - 1  # jump straight at the RTN
    with pytest.raises(MachineFault, match="RTN"):
        cpu.step()


def test_concurrent_offload_hides_latency_only(spill_compiled):
    """Offload mode (paper footnote 4): same energy, less time."""
    model, program, compilation = spill_compiled
    sequential = run_amnesic(compilation, "Compiler", model)
    offloaded = run_amnesic(
        compilation, "Compiler", model, concurrent_offload=True
    )
    assert offloaded.stats.recomputations_fired == sequential.stats.recomputations_fired
    assert abs(offloaded.energy_nj - sequential.energy_nj) < 1e-6
    assert offloaded.time_ns < sequential.time_ns
    # Correctness is unaffected (verification stayed on).
    assert offloaded.cpu.memory.snapshot() == sequential.cpu.memory.snapshot()


def test_slice_fault_aborts_to_fallback(spill_compiled):
    """Paper section 2.3: a fault during recomputation must not corrupt
    state - the traversal is discarded and the load performed."""
    import copy

    from repro.isa import HistRef, Imm, Instruction, Opcode, SReg

    model, program, compilation = spill_compiled
    corrupted = copy.deepcopy(compilation.binary)
    # Rewrite the first slice's body into a division by a zero immediate:
    # guaranteed ArithmeticFault on every traversal.
    region = corrupted.program.slices[0]
    first = corrupted.program.instructions[region.start]
    corrupted.program.instructions[region.start] = Instruction(
        Opcode.DIV,
        dest=first.dest,
        srcs=(Imm(1), Imm(0)),
        leaf_id=first.leaf_id,
    )
    cpu = AmnesicCPU(corrupted, model, make_policy("Compiler"), verify=True)
    cpu.run()  # must complete despite the poisoned slice
    assert cpu.stats.recomputation_aborts > 0
    # Architectural results still match classic execution.
    classic = run_classic(program, model)
    assert cpu.memory.snapshot() == classic.cpu.memory.snapshot()
