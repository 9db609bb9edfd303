"""Classic CPU interpreter semantics and accounting."""

import pytest

from repro.energy import EPITable, EnergyModel
from repro.errors import ExecutionLimitExceeded, MachineFault
from repro.isa import Imm, Opcode, ProgramBuilder, Reg, rec
from repro.machine import CPU
from repro.trace import DependenceTracker

from ..conftest import tiny_config


def make_model():
    return EnergyModel(epi=EPITable.default(), config=tiny_config())


def run_program(program, tracer=None, max_instructions=100_000):
    cpu = CPU(program, make_model(), tracer=tracer, max_instructions=max_instructions)
    cpu.run()
    return cpu


def test_arithmetic_program_computes_expected_result():
    b = ProgramBuilder()
    cell = b.reserve(1)
    x, y, base = b.regs("x", "y", "base")
    b.li(base, cell)
    b.li(x, 6)
    b.li(y, 7)
    b.mul(x, x, y)
    b.add(x, x, 8)
    b.st(x, base)
    cpu = run_program(b.build())
    assert cpu.memory.read(cell) == 50


def test_r0_is_hardwired_zero():
    b = ProgramBuilder()
    cell = b.reserve(1, fill=5)
    base = b.reg("base")
    b.li(base, cell)
    b.emit_r0 = b.program.append  # direct append to write r0
    from repro.isa import alu
    b.program.append(alu(Opcode.LI, Reg(0), Imm(99)))
    b.st(Reg(0), base)
    cpu = run_program(b.build())
    assert cpu.memory.read(cell) == 0


def test_loads_and_stores_account_to_their_groups():
    b = ProgramBuilder()
    arr = b.data([1, 2, 3])
    base, v = b.regs("base", "v")
    b.li(base, arr)
    b.ld(v, base)
    b.st(v, base, offset=1)
    cpu = run_program(b.build())
    assert cpu.account.breakdown()["load"] > 0
    assert cpu.account.breakdown()["store"] > 0
    assert cpu.stats.loads_performed == 1
    assert cpu.stats.stores_performed == 1


def test_branch_taken_statistics():
    b = ProgramBuilder()
    x = b.reg("x")
    b.li(x, 0)
    with b.loop("i", 0, 3):
        b.add(x, x, 1)
    cpu = run_program(b.build())
    # Loop exit branch is taken once; back-jumps are JMPs.
    assert cpu.stats.branches_taken == 1


def test_execution_limit():
    b = ProgramBuilder()
    b.label("spin")
    b.jmp("spin")
    program = b.build()
    with pytest.raises(ExecutionLimitExceeded):
        run_program(program, max_instructions=100)


def test_non_integer_address_faults():
    b = ProgramBuilder()
    f, v = b.regs("f", "v")
    b.li(f, 1.5)
    b.ld(v, f)
    with pytest.raises(MachineFault):
        run_program(b.build())


def test_amnesic_opcode_faults_on_classic_cpu():
    b = ProgramBuilder()
    b.emit(rec(0, 0, (Reg(1),)))
    program = b.build(validate=False)
    with pytest.raises(MachineFault, match="classic"):
        run_program(program)


def test_jr_one_past_the_end_faults_at_the_jump():
    # Regression: the bounds check used to accept target == len(program),
    # deferring the failure to the next fetch as a misleading "ran off
    # the end" fault.  The jump itself must be rejected, naming the JR.
    b = ProgramBuilder()
    t = b.reg("t")
    b.li(t, 3)  # == len(instructions): one past the final HALT
    b.ret(t)
    b.halt()
    program = b.build()
    assert len(program.instructions) == 3
    with pytest.raises(MachineFault, match="jump-register") as excinfo:
        run_program(program)
    assert excinfo.value.pc == 1  # the JR, not the fetch after it
    assert "valid pcs are 0..2" in str(excinfo.value)


def test_jr_to_the_last_valid_pc_still_works():
    # The boundary fix must not over-reject: len - 1 stays legal.
    b = ProgramBuilder()
    t, x = b.regs("t", "x")
    b.li(t, 3)  # pc of the final HALT
    b.ret(t)
    b.li(x, 99)  # skipped by the jump
    b.halt()
    program = b.build()
    assert len(program.instructions) == 4
    cpu = run_program(program)
    assert cpu.halted
    assert cpu.registers[x.index] == 0


def test_step_enforces_the_instruction_budget():
    # Regression: step() used to skip the dynamic-instruction budget, so
    # direct single-stepping callers could livelock past max_instructions.
    b = ProgramBuilder()
    b.label("spin")
    b.jmp("spin")
    cpu = CPU(b.build(), make_model(), max_instructions=10)
    with pytest.raises(ExecutionLimitExceeded):
        for _ in range(1000):
            cpu.step()
    assert cpu.dynamic_count == 10


def test_pc_off_the_end_faults():
    from repro.isa import Program, li as make_li
    program = Program()
    program.append(make_li(Reg(1), 1))  # no HALT
    with pytest.raises(MachineFault, match="ran off"):
        run_program(program)


def test_event_indices_are_dense():
    # ``retire`` asserts each index is the next one, so a run that
    # completes numbered its retirements densely.
    b = ProgramBuilder()
    arr = b.data([1, 2, 3, 4])
    base, v, acc = b.regs("base", "v", "acc")
    b.li(base, arr)
    with b.loop("i", 0, 4) as i:
        b.add(v, base, i)
        b.ld(v, v)
        b.add(acc, acc, v)
    tracker = DependenceTracker()
    cpu = run_program(b.build(), tracer=tracker)
    assert len(tracker) == cpu.dynamic_count


def test_dependence_tracker_attaches_cleanly():
    b = ProgramBuilder()
    arr = b.data([5])
    base, v = b.regs("base", "v")
    b.li(base, arr)
    b.ld(v, base)
    tracker = DependenceTracker()
    run_program(b.build(), tracer=tracker)
    loads = tracker.dynamic_loads()
    assert len(loads) == 1
    assert loads[0].result == 5


def test_writeback_energy_charged_on_finalize():
    b = ProgramBuilder()
    arr = b.reserve(64)
    base, v = b.regs("base", "v")
    b.li(base, arr)
    with b.loop("i", 0, 64) as i:
        b.add(v, base, i)
        b.st(i, v)
    # Re-walk to force dirty evictions all the way out.
    with b.loop("j", 0, 64) as j:
        b.add(v, base, j)
        b.ld(v, v)
    cpu = run_program(b.build())
    assert cpu.account.breakdown()["writeback"] > 0


def test_total_time_accumulates():
    b = ProgramBuilder()
    x = b.reg("x")
    b.li(x, 1)
    cpu = run_program(b.build())
    assert cpu.account.total_time_ns > 0
