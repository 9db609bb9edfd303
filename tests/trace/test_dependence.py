"""Dynamic dependence tracking on known dataflow."""

from repro.energy import EPITable, EnergyModel
from repro.isa import Opcode, ProgramBuilder
from repro.machine import CPU
from repro.trace import SRC_IMM, SRC_REG, DependenceTracker

from ..conftest import tiny_config


def trace_program(program):
    tracker = DependenceTracker()
    cpu = CPU(program, EnergyModel(epi=EPITable.default(), config=tiny_config()),
              tracer=tracker)
    cpu.run()
    return tracker


def test_register_producer_chain():
    b = ProgramBuilder()
    x, y = b.regs("x", "y")
    b.li(x, 5)            # dyn 0
    b.add(y, x, 2)        # dyn 1: y <- x(prod 0)
    b.mul(y, y, x)        # dyn 2: y <- y(prod 1), x(prod 0)
    tracker = trace_program(b.build())
    record = tracker.record(2)
    assert record.srcs[0][0] == SRC_REG and record.srcs[0][1] == 1
    assert record.srcs[1][0] == SRC_REG and record.srcs[1][1] == 0
    assert record.srcs[0][3] == 7  # the consumed value travels with the edge


def test_memory_producer_found():
    b = ProgramBuilder()
    cell = b.reserve(1)
    base, v = b.regs("base", "v")
    b.li(base, cell)      # dyn 0
    b.st(7, base)         # dyn 1
    b.ld(v, base)         # dyn 2
    tracker = trace_program(b.build())
    load = tracker.dynamic_loads()[0]
    assert load.mem_producer == 1
    assert load.result == 7


def test_load_of_initial_memory_has_no_producer():
    b = ProgramBuilder()
    arr = b.data([9], read_only=True)
    base, v = b.regs("base", "v")
    b.li(base, arr)
    b.ld(v, base)
    tracker = trace_program(b.build())
    assert tracker.dynamic_loads()[0].mem_producer is None


def test_store_overwrites_previous_producer():
    b = ProgramBuilder()
    cell = b.reserve(1)
    base, v = b.regs("base", "v")
    b.li(base, cell)
    b.st(1, base)         # dyn 1
    b.st(2, base)         # dyn 2
    b.ld(v, base)         # dyn 3
    tracker = trace_program(b.build())
    assert tracker.dynamic_loads()[0].mem_producer == 2


def test_immediates_recorded_as_constants():
    b = ProgramBuilder()
    x = b.reg("x")
    b.add(x, 1, 2)
    tracker = trace_program(b.build())
    record = tracker.record(0)
    assert record.srcs == ((SRC_IMM, 1), (SRC_IMM, 2))


def test_loads_at_groups_by_static_pc():
    b = ProgramBuilder()
    cell = b.reserve(1)
    base, v = b.regs("base", "v")
    b.li(base, cell)
    with b.loop("i", 0, 3) as i:
        b.st(i, base)
        b.ld(v, base)
    tracker = trace_program(b.build())
    loads = tracker.dynamic_loads()
    assert len({r.pc for r in loads}) == 1
    assert len(loads) == 3


def test_r0_writes_produce_nothing():
    from repro.isa import alu, Reg, Imm
    b = ProgramBuilder()
    x = b.reg("x")
    b.program.append(alu(Opcode.LI, Reg(0), Imm(5)))
    b.mov(x, Reg(0))
    tracker = trace_program(b.build())
    record = tracker.record(1)
    assert record.srcs[0][1] is None  # r0 has no producer
