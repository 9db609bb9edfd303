"""Batched fast backend: fused self-loops, proven byte-identical.

The region analysis (``repro.staticcheck.regions``) proves self-loops —
a conditional-branch header falling through into one batchable region
closed by a ``JMP`` back to the header — and the batched backend runs
each in one generated function: whole passes in a ``while`` loop, the
budget checked once per pass.  Its contract is the per-pc contract:
architectural state, RunStats, cache state, energy/time accounts and
fault type/message/pc match the classic interpreter exactly, when the
budget lands on a header, mid-body or on the loop-back, when a load or
store faults in a later pass, when a loop runs zero times, and when a
JR enters the body.  The deliberately broken loop-back budget check
(``repro.fuzz.faults.loop_budget_late``) must be caught by this suite
and by the differential oracle.
"""

import contextlib
import dataclasses

import pytest

from repro.errors import ExecutionLimitExceeded, MemoryFault, ReproError
from repro.fuzz import check_program, default_fuzz_model, materialize
from repro.fuzz.faults import loop_budget_late
from repro.isa import Opcode, ProgramBuilder
from repro.machine import CPU, BatchedFastCPU
from repro.workloads import get, responsive_specs

from ..property.test_regions_property import classic_visit_counts
from .test_fastpath_regions import (
    assert_state_equal,
    budget_edge_entry,
    fused_loops,
    fused_spans,
    make_model,
    run_both,
)


def loop_kernel(iterations=4, name="loop-kernel"):
    """A counted loop whose body loads, computes and stores."""
    b = ProgramBuilder(name)
    arr = b.data(list(range(16)))
    slots = b.reserve(4)
    base, slot, v, acc = b.regs("base", "slot", "v", "acc")
    b.li(base, arr)
    b.li(slot, slots)
    b.li(acc, 0)
    with b.loop("i", 0, iterations) as i:
        b.add(v, base, i)
        b.ld(v, v)
        b.op(Opcode.MUL, v, v, 3)
        b.add(acc, acc, v)
        b.st(acc, slot)
    b.st(acc, slot, 1)
    b.halt()
    return b.build()


def only_loop(cpu):
    (loop,) = fused_loops(cpu)
    return loop


def outcome(cpu, error):
    """Everything ``assert_state_equal`` compares, plus the fault."""
    return (
        cpu.registers,
        cpu.memory.snapshot(),
        cpu.pc,
        cpu.dynamic_count,
        dataclasses.asdict(cpu.stats),
        dataclasses.asdict(cpu.hierarchy.stats),
        cpu.hierarchy.l1.observe(),
        cpu.hierarchy.l2.observe(),
        cpu.account.breakdown(),
        cpu.account.total_time_ns,
        None if error is None else (type(error), str(error), error.pc),
    )


def run_one(cls, program, max_instructions):
    cpu = cls(program, make_model(), max_instructions=max_instructions)
    try:
        cpu.run()
    except ReproError as error:
        return cpu, error
    return cpu, None


# ----------------------------------------------------------------------
# Budgets.
# ----------------------------------------------------------------------


def test_budget_sweep_across_loop_passes():
    """Every budget from 1 to past clean completion matches classic.

    The sweep lands the budget on the header (the outer loop's check
    after a loop-back exit), inside the body (run per pc once the header
    ran alone) and on the loop-back ``JMP``; each must reproduce the
    classic fault pc, message, counts and accounts exactly.
    """
    program = loop_kernel()
    clean = CPU(program, make_model())
    clean.run()
    total = clean.dynamic_count
    header, back = only_loop(BatchedFastCPU(program, make_model()))
    trips = {"header": 0, "body": 0, "loop-back": 0}
    for budget in range(1, total + 2):
        (classic, err), (batched, _) = run_both(
            program, max_instructions=budget
        )
        assert_state_equal(classic, batched)
        if budget < total:
            assert isinstance(err, ExecutionLimitExceeded)
            if classic.pc == header:
                trips["header"] += 1
            elif header < classic.pc < back:
                trips["body"] += 1
            elif classic.pc == back:
                trips["loop-back"] += 1
        else:
            assert err is None
    assert all(trips.values()), f"sweep missed a trip position: {trips}"


def test_loop_budget_sweep_catches_the_late_loop_back():
    # The sweep above holds fast-batched to classic on every budget.
    program = loop_kernel()
    clean = CPU(program, make_model())
    clean.run()
    with loop_budget_late():
        caught = sum(
            outcome(*run_one(BatchedFastCPU, program, budget))
            != outcome(*run_one(CPU, program, budget))
            for budget in range(1, clean.dynamic_count + 2)
        )
    assert caught > 0, "no budget exposed a pass run past the budget"


def test_resumed_runs_flush_clean():
    """A run resumed after a budget trip counts each instruction once."""
    program = loop_kernel(iterations=6)
    header, back = only_loop(BatchedFastCPU(program, make_model()))
    for budget in (header + 1, header + 3, back + 1, back + 8):
        cpus = []
        for cls in (CPU, BatchedFastCPU):
            cpu = cls(program, make_model(), max_instructions=budget)
            with pytest.raises(ExecutionLimitExceeded):
                cpu.run()
            cpu.max_instructions = 10_000
            cpu.run()
            cpus.append(cpu)
        assert_state_equal(*cpus)


def test_visit_counts_match_classic():
    program = loop_kernel(iterations=5)
    for budget in (10_000, 23):
        batched = BatchedFastCPU(program, make_model(), max_instructions=budget)
        try:
            batched.run()
        except ExecutionLimitExceeded:
            pass
        assert batched._batch_visit_counts == classic_visit_counts(
            program, budget
        )[0]


# ----------------------------------------------------------------------
# Faults in a later pass.
# ----------------------------------------------------------------------


def late_fault_program(kind):
    """A loop whose third pass reads unmapped or writes read-only memory."""
    b = ProgramBuilder(f"late-{kind}")
    arr = b.data(list(range(8)))
    slots = b.reserve(2)
    rom = b.data([9, 9], read_only=True)
    t, v, acc = b.regs("t", "v", "acc")
    b.li(acc, 0)
    with b.loop("i", 0, 6) as i:
        b.op(Opcode.SHR, t, i, 1)  # 0, 0, 1, 1, ...
        if kind == "load":
            b.mul(t, t, 1 << 16)
            b.add(t, t, arr)
            b.ld(v, t)
            b.add(acc, acc, v)
        else:
            b.mul(t, t, rom - slots)
            b.add(t, t, slots)
            b.st(i, t)
        b.add(acc, acc, 1)
    b.halt()
    return b.build()


@pytest.mark.parametrize("kind", ["load", "store"])
def test_memory_fault_in_a_later_pass(kind):
    program = late_fault_program(kind)
    (classic, err), (batched, _) = run_both(program)
    assert isinstance(err, MemoryFault)
    assert ("unmapped" if kind == "load" else "read-only") in str(err)
    assert_state_equal(classic, batched)
    header, back = only_loop(batched)
    assert header < classic.pc < back
    # Two whole passes ran before the faulting one.
    assert classic.stats.dynamic_instructions > 2 * (back - header + 1)


# ----------------------------------------------------------------------
# Entries and headers.
# ----------------------------------------------------------------------


def test_zero_trip_loop():
    b = ProgramBuilder("zero-trip")
    x = b.reg("x")
    with b.loop("i", 5, 5):
        b.add(x, x, 1)
        b.add(x, x, 2)
    b.halt()
    program = b.build()
    (classic, _), (batched, _) = run_both(program)
    assert_state_equal(classic, batched)
    assert fused_loops(batched)
    assert classic.registers[x.index] == 0


def jr_into_loop(offset):
    """JR to body element *offset* of a loop the program never entered."""
    b = ProgramBuilder("jr-loop")
    t, acc = b.regs("t", "acc")
    b.li(acc, 0)  # 0
    b.li(t, 5 + offset)  # 1
    b.ret(t)  # 2
    with b.loop("i", 0, 5) as i:  # 3: li i, 0; 4: header
        b.add(acc, acc, i)  # 5: body start
        b.add(acc, acc, 1)  # 6; 7: add i; 8: JMP
    b.halt()
    return b.build()


@pytest.mark.parametrize("offset", [0, 1], ids=["body-start", "mid-body"])
def test_jr_into_the_loop_body(offset):
    program = jr_into_loop(offset)
    (classic, _), (batched, _) = run_both(program)
    assert_state_equal(classic, batched)
    assert fused_loops(batched) == [(4, 8)]


def bounded_loop(bound, start, step):
    """``while x < bound: x += step`` with an immediate *bound*."""
    b = ProgramBuilder("bounded")
    x, n = b.regs("x", "n")
    b.li(x, start)
    b.label("top")
    b.br(Opcode.BGE, x, bound, "out")
    b.op(Opcode.FADD if isinstance(step, float) else Opcode.ADD, x, x, step)
    b.add(n, n, 1)
    b.jmp("top")
    b.label("out")
    b.halt()
    return b.build()


@pytest.mark.parametrize(
    "bound, start, step",
    [
        (3.5, 0, 1),
        # An out-of-range int bound, reached by a float counter.
        (1 << 70, float((1 << 70) - (1 << 20)), float(1 << 18)),
        (-(1 << 70), 0, 1),
    ],
    ids=["float-bound", "big-int-bound", "big-int-zero-trip"],
)
def test_header_bounds(bound, start, step):
    program = bounded_loop(bound, start, step)
    (classic, err), (batched, _) = run_both(program)
    assert err is None
    assert_state_equal(classic, batched)
    assert fused_loops(batched) == [(1, 4)]


# ----------------------------------------------------------------------
# Coverage and the broken twin under the oracle.
# ----------------------------------------------------------------------


def test_kernels_actually_fuse_loops():
    # The kernel parity tests are vacuous for fused loops unless the
    # kernels' hot loops actually fuse.
    for spec in responsive_specs():
        cpu = BatchedFastCPU(spec.instantiate(0.25), make_model())
        loops = fused_loops(cpu)
        assert len(loops) >= (3 if spec.name == "mcf" else 1), spec.name
        # A fused loop's body is fused code too.
        spans = fused_spans(cpu)
        assert all((header + 1, back) in spans for header, back in loops)


def test_compiled_mcf_fuses_loops():
    from repro.compiler.amnesic_pass import compile_amnesic
    from repro.core.backend import BatchedFastAmnesicCPU
    from repro.core.policies import make_policy

    model = make_model()
    binary = compile_amnesic(get("mcf").instantiate(0.25), model).binary
    cpu = BatchedFastAmnesicCPU(binary, model, make_policy("FLC"))
    assert len(fused_loops(cpu)) >= 3


@pytest.mark.parametrize(
    "twin, caught", [(loop_budget_late, True), (contextlib.nullcontext, False)]
)
def test_oracle_on_the_loop_budget_edge(twin, caught):
    entry = budget_edge_entry()
    with twin():
        verdict = check_program(
            materialize(entry.spec),
            spec=entry.spec,
            model=default_fuzz_model(),
            max_instructions=entry.max_instructions,
            backend="fast-batched",
        )
    assert verdict.invalid, verdict.summary()
    assert bool(verdict.failures) == caught, verdict.summary()
    if caught:
        assert any(failure.kind == "backend" for failure in verdict.failures)
