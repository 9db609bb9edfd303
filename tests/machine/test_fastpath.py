"""Generated fast path: exact equivalence with the classic interpreter.

``BatchedFastCPU`` predecodes the program into per-pc functions (plus
fused regions, see ``test_fastpath_regions``) rendered from one
description per opcode, but its contract is that nothing observable
changes: architectural state, RunStats, cache state, the per-group
energy breakdown, modeled time, traced event streams, and fault
type/message/pc must all be byte-for-byte the classic ones.  These
tests pin that contract on hand-written programs; the fuzz oracle's
:func:`repro.fuzz.check_program` pins it on generated ones.
"""

import dataclasses

import pytest

from repro.energy import EPITable, EnergyModel
from repro.errors import (
    ArithmeticFault,
    ExecutionLimitExceeded,
    MachineFault,
    MemoryFault,
    ReproError,
)
from repro.isa import Opcode, ProgramBuilder
from repro.machine import CPU, BatchedFastCPU
from repro.trace import InstructionEvent

from ..conftest import build_spill_kernel, tiny_config


def make_model():
    return EnergyModel(epi=EPITable.default(), config=tiny_config())


class RecordingTracer:
    def __init__(self):
        self.events = []

    def on_instruction(self, event: InstructionEvent):
        self.events.append(event)


def run_pair(program, max_instructions=100_000, tracer_factory=None):
    """Run *program* under both backends; return (classic, fast) CPUs.

    Faults must agree exactly (type, message, pc) or the pair is the
    failure; a matching fault is re-raised by the caller's pytest.raises.
    """
    outcomes = []
    for cls in (CPU, BatchedFastCPU):
        tracer = tracer_factory() if tracer_factory else None
        cpu = cls(
            program, make_model(), tracer=tracer,
            max_instructions=max_instructions,
        )
        error = None
        try:
            cpu.run()
        except ReproError as caught:
            error = caught
        outcomes.append((cpu, tracer, error))
    (classic, _, classic_err), (fast, _, fast_err) = outcomes
    if (classic_err is None) != (fast_err is None):
        raise AssertionError(
            f"fault divergence: classic {classic_err!r}, fast {fast_err!r}"
        )
    if classic_err is not None:
        assert type(classic_err) is type(fast_err)
        assert str(classic_err) == str(fast_err)
        assert getattr(classic_err, "pc", None) == getattr(fast_err, "pc", None)
        raise classic_err
    return outcomes[0], outcomes[1]


def assert_state_equal(classic, fast):
    assert classic.registers == fast.registers
    assert classic.memory.snapshot() == fast.memory.snapshot()
    assert classic.pc == fast.pc
    assert classic.dynamic_count == fast.dynamic_count
    assert dataclasses.asdict(classic.stats) == dataclasses.asdict(fast.stats)
    assert dataclasses.asdict(classic.hierarchy.stats) == dataclasses.asdict(
        fast.hierarchy.stats
    )
    assert classic.hierarchy.l1.observe() == fast.hierarchy.l1.observe()
    assert classic.hierarchy.l2.observe() == fast.hierarchy.l2.observe()
    # Exact floats: the fast backend must charge in classic order.
    assert classic.account.breakdown() == fast.account.breakdown()
    assert classic.account.total_time_ns == fast.account.total_time_ns


def test_spill_kernel_is_bit_identical():
    program = build_spill_kernel(iterations=12, chain=3, gap=7)
    (classic, _, _), (fast, _, _) = run_pair(program)
    assert_state_equal(classic, fast)
    assert fast.halted


def test_branchy_arithmetic_is_bit_identical():
    b = ProgramBuilder()
    arr = b.data(list(range(32)))
    base, v, acc = b.regs("base", "v", "acc")
    b.li(base, arr)
    b.li(acc, 0)
    with b.loop("i", 0, 32) as i:
        b.add(v, base, i)
        b.ld(v, v)
        b.op(Opcode.AND, v, v, 7)
        with b.when(Opcode.BNE, v, 0):
            b.add(acc, acc, v)
    out = b.reserve(1)
    r_out = b.reg("out")
    b.li(r_out, out)
    b.st(acc, r_out)
    (classic, _, _), (fast, _, _) = run_pair(b.build())
    assert_state_equal(classic, fast)


def test_traced_runs_emit_identical_event_streams():
    program = build_spill_kernel(iterations=6, chain=2, gap=4)
    (classic, ct, _), (fast, ft, _) = run_pair(
        program, tracer_factory=RecordingTracer
    )
    assert_state_equal(classic, fast)
    assert len(ct.events) == len(ft.events)
    for left, right in zip(ct.events, ft.events):
        assert left == right
    # Traced runs stay per-pc: one event per instruction, nothing fused.
    assert fast._decoded().region_spans == []


def test_jr_one_past_the_end_fault_parity():
    b = ProgramBuilder()
    t = b.reg("t")
    b.li(t, 3)
    b.ret(t)
    b.halt()
    with pytest.raises(MachineFault, match="jump-register"):
        run_pair(b.build())


def test_off_the_end_fault_parity():
    from repro.isa import Program, Reg, li as make_li

    program = Program()
    program.append(make_li(Reg(1), 1))  # no HALT
    with pytest.raises(MachineFault, match="ran off"):
        run_pair(program)


def test_budget_fault_parity():
    b = ProgramBuilder()
    b.label("spin")
    b.jmp("spin")
    with pytest.raises(ExecutionLimitExceeded):
        run_pair(b.build(), max_instructions=100)


def test_division_by_zero_fault_parity():
    b = ProgramBuilder()
    x, y = b.regs("x", "y")
    b.li(x, 5)
    b.li(y, 0)
    b.op(Opcode.DIV, x, x, y)
    b.halt()
    with pytest.raises(ArithmeticFault):
        run_pair(b.build())


def read_only_store_program(fused):
    """Store into the second of two read-only ranges after some work.

    *fused* keeps the faulting store inside one straight-line region;
    otherwise it sits alone between jumps and dispatches per pc.
    """
    b = ProgramBuilder("ro-fused" if fused else "ro-per-pc")
    b.data([1, 2, 3], read_only=True)
    second = b.data([4, 5, 6, 7], read_only=True)
    scratch = b.reserve(4)
    base, out, v = b.regs("base", "out", "v")
    b.li(base, second)
    b.li(out, scratch)
    b.ld(v, base, 1)
    b.st(v, out, 0)
    b.add(v, v, 1)
    if not fused:
        b.jmp("store")
        b.label("store")
    b.st(v, base, 2)  # faults: inside the second read-only range
    b.jmp("done")
    b.label("done")
    b.halt()
    return b.build()


@pytest.mark.parametrize("fused", (False, True), ids=("per-pc", "fused"))
def test_read_only_store_fault_parity(fused):
    program = read_only_store_program(fused)
    store_pc = max(
        pc
        for pc, instruction in enumerate(program.instructions)
        if instruction.opcode is Opcode.ST
    )
    cpus, errors = [], []
    for cls in (CPU, BatchedFastCPU):
        cpu = cls(program, make_model())
        with pytest.raises(MemoryFault) as caught:
            cpu.run()
        cpus.append(cpu)
        errors.append(caught.value)
    classic, fast = cpus
    spans = fast._decoded().region_spans
    assert any(start <= store_pc < end for start, end in spans) == fused
    assert str(errors[0]) == str(errors[1])
    assert "write to read-only address" in str(errors[1])
    assert errors[0].pc == errors[1].pc
    assert classic.pc == fast.pc == store_pc
    assert_state_equal(classic, fast)


def test_budget_fault_counts_match():
    b = ProgramBuilder()
    b.label("spin")
    b.jmp("spin")
    program = b.build()
    cpus = []
    for cls in (CPU, BatchedFastCPU):
        cpu = cls(program, make_model(), max_instructions=64)
        with pytest.raises(ExecutionLimitExceeded):
            cpu.run()
        cpus.append(cpu)
    classic, fast = cpus
    # Even on the fault path the deferred counters must have flushed.
    assert classic.dynamic_count == fast.dynamic_count == 64
    assert dataclasses.asdict(classic.stats) == dataclasses.asdict(fast.stats)
    assert classic.pc == fast.pc


def test_decode_is_cached_across_runs():
    program = build_spill_kernel(iterations=2, chain=2, gap=2)
    cpu = BatchedFastCPU(program, make_model())
    first = cpu._decoded()
    assert cpu._decoded() is first


def test_profiled_fast_run_reconciles():
    # With a profiler attached the fast backend hands the run to the
    # classic instrumented loop; totals must still reconcile.
    from repro.telemetry.profiler import HotLoopProfiler, reconcile
    from repro.telemetry.runtime import telemetry_session

    program = build_spill_kernel(iterations=8, chain=3, gap=5)
    profiler = HotLoopProfiler(sample_every=7)
    with telemetry_session(profiler=profiler):
        fast = BatchedFastCPU(program, make_model())
        fast.run()
    classic = CPU(program, make_model())
    classic.run()
    assert_state_equal(classic, fast)
    result = reconcile(
        profiler, fast.stats.dynamic_instructions,
        fast.account.total_energy_nj,
    )
    assert result["reconciled"], result


def test_timeline_fast_run_matches_classic():
    # A timeline request also falls back to the classic loop (per
    # instruction capture checks); state must be unchanged.
    from repro.telemetry.runtime import telemetry_session

    program = build_spill_kernel(iterations=6, chain=2, gap=3)
    with telemetry_session(timeline_window=50) as telemetry:
        with telemetry.span("test"):
            fast = BatchedFastCPU(program, make_model())
            fast.run()
    classic = CPU(program, make_model())
    classic.run()
    assert_state_equal(classic, fast)


def test_fast_backend_matches_classic_on_hot_loop():
    b = ProgramBuilder()
    arr = b.data(list(range(64)))
    base, v, acc = b.regs("base", "v", "acc")
    b.li(base, arr)
    with b.loop("i", 0, 20_000) as i:
        b.op(Opcode.AND, v, i, 63)
        b.add(v, v, base)
        b.ld(v, v)
        b.add(acc, acc, v)
    program = b.build()

    def run(cls):
        cpu = cls(program, make_model(), max_instructions=10_000_000)
        cpu.run()
        return cpu

    assert_state_equal(run(CPU), run(BatchedFastCPU))
