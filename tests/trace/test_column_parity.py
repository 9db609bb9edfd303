"""Traced fast-path runs build the classic dependence trace, column for column.

The classic ``CPU`` fills a :class:`~repro.trace.DependenceTracker`
through one ``retire`` call per retired instruction, the reference;
``BatchedFastCPU``'s traced per-pc functions and fused loops append the
same columns from generated code, and only thunked pcs still retire
through the classic handler.
Every query the compiler reads must answer identically on the two
trackers, and the two traced runs must end in the same machine state
(a profile's CPU is also the classic baseline): on all 33 kernels, on
every corpus entry at its own budget, on budgets that trip mid-run and
on a fault.  Two broken twins must be caught: one defers the stores'
last-store update, the other gives fused loops trace columns apart from
their pcs' per-pc functions.
"""

from pathlib import Path

import pytest

from repro.energy.tech import paper_energy_model
from repro.fuzz import default_fuzz_model, load_entry, materialize
from repro.fuzz.corpus import corpus_paths
from repro.fuzz.faults import deferred_store_producer, split_trace_columns
from repro.fuzz.oracle import DEFAULT_MAX_INSTRUCTIONS, _observable
from repro.isa import Instruction, Opcode, ProgramBuilder, Reg
from repro.machine import CPU, BatchedFastCPU
from repro.trace import DependenceTracker
from repro.workloads.suite import REGISTRY

from ..conftest import trace_divergence, traced_cpu

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

#: Kernels bottom out at two phases here, so this is the cheapest scale
#: that still runs every phase of every kernel.
KERNEL_SCALE = 0.25

KERNEL_MODEL = paper_energy_model()
FUZZ_MODEL = default_fuzz_model()


def column_parity(program, model, max_instructions=DEFAULT_MAX_INSTRUCTIONS):
    """``(divergence, fault)`` of a classic and a fast-batched traced run.

    *divergence* is None when the trackers answer every query alike,
    both runs ended on the same fault (or none), which is *fault*, and
    every field the fuzz oracle observes of the two CPUs is equal.
    """
    classic, fault = traced_cpu(CPU, program, model, max_instructions)
    fast, fast_fault = traced_cpu(BatchedFastCPU, program, model, max_instructions)
    if fast_fault != fault:
        return f"fault {fast_fault}, expected {fault}", fault
    divergence = trace_divergence(classic.tracer, fast.tracer, program)
    if divergence is None:
        expected, actual = _observable(classic), _observable(fast)
        differing = [name for name, value in expected.items() if value != actual[name]]
        if differing:
            divergence = f"machine state differs: {', '.join(differing)}"
    return divergence, fault


def corpus_program(stem):
    (path,) = [p for p in corpus_paths(CORPUS_DIR) if p.stem.startswith(stem + "-")]
    entry = load_entry(path)
    return materialize(entry.spec), entry.max_instructions or DEFAULT_MAX_INSTRUCTIONS


@pytest.mark.parametrize("name", REGISTRY.names())
def test_kernel_columns_match_classic(name):
    program = REGISTRY.get(name).instantiate(KERNEL_SCALE)
    divergence, fault = column_parity(program, KERNEL_MODEL)
    assert divergence is None
    assert fault is None


@pytest.mark.parametrize(
    "path", corpus_paths(CORPUS_DIR), ids=lambda path: path.stem
)
def test_corpus_columns_match_classic(path):
    entry = load_entry(path)
    program = materialize(entry.spec)
    budget = entry.max_instructions or DEFAULT_MAX_INSTRUCTIONS
    assert column_parity(program, FUZZ_MODEL, budget)[0] is None


@pytest.mark.parametrize("budget", [777, 5_000])
@pytest.mark.parametrize("name", ["mcf", "is"])
def test_budget_trip_columns_match_classic(name, budget):
    program = REGISTRY.get(name).instantiate(KERNEL_SCALE)
    divergence, fault = column_parity(program, KERNEL_MODEL, budget)
    assert divergence is None
    assert fault[0] == "ExecutionLimitExceeded"


def test_fault_columns_match_classic():
    """Stores and reloads, then a load of an unmapped address."""
    b = ProgramBuilder("fault-ending")
    slots = b.reserve(8)
    base, v, bad = b.regs("base", "v", "bad")
    b.li(base, slots)
    with b.loop("i", 0, 8) as i:
        b.add(v, i, base)
        b.st(i, v)
        b.ld(v, v)
    b.li(bad, 1 << 40)
    b.ld(v, bad)
    b.halt()
    divergence, fault = column_parity(b.build(), FUZZ_MODEL)
    assert divergence is None
    assert fault[0] == "MemoryFault"


def traced_loops(program, model):
    """The ``(header, loop-back)`` pcs a traced fast-batched decode fuses."""
    table = BatchedFastCPU(program, model, tracer=DependenceTracker())._decoded()
    return [unit.loop for unit in table.units]


def test_fault_in_a_fused_loop_columns_match_classic():
    """A load in the fifth pass of a fused loop reads an unmapped address."""
    b = ProgramBuilder("loop-fault")
    slots = b.reserve(2)
    base, a, v = b.regs("base", "a", "v")
    b.li(base, slots)
    with b.loop("i", 0, 8) as i:
        b.op(Opcode.SHR, a, i, 2)
        b.mul(a, a, 1 << 30)
        b.add(a, a, base)
        b.st(i, base)
        b.ld(v, a)
    b.halt()
    program = b.build()
    assert traced_loops(program, FUZZ_MODEL)
    divergence, fault = column_parity(program, FUZZ_MODEL)
    assert divergence is None
    assert fault[0] == "MemoryFault"


def test_a_destination_its_family_ignores_still_writes_in_a_fused_loop():
    """Classic ``retire`` counts a ``NOP``'s destination among its writers."""
    b = ProgramBuilder("nop-writer")
    acc = b.reg("acc")
    with b.loop("i", 0, 5) as i:
        b.add(acc, acc, i)
        b.emit(Instruction(Opcode.NOP, dest=Reg(9)))
    b.halt()
    program = b.build()
    assert traced_loops(program, FUZZ_MODEL)
    classic, _ = traced_cpu(CPU, program, FUZZ_MODEL, DEFAULT_MAX_INSTRUCTIONS)
    assert len(classic.tracer.writers(9)) == 5
    assert column_parity(program, FUZZ_MODEL)[0] is None


@pytest.mark.parametrize("stem", ["batch-alias-memory", "aliasing-store"])
def test_parity_catches_the_deferred_store_producer(stem):
    program, budget = corpus_program(stem)
    with deferred_store_producer():
        divergence, _ = column_parity(program, FUZZ_MODEL, budget)
    assert divergence is not None
    # Leaving the context restores the description and drops the code
    # generated from the broken one.
    assert column_parity(program, FUZZ_MODEL, budget)[0] is None


@pytest.mark.parametrize("case", ["batch-budget-edge", "mcf@777"])
def test_parity_catches_split_trace_columns(case):
    """A loop pc that retires per pc and fused must keep one static entry.

    Both budgets trip with a pass of a fused loop left, which the
    header's per-pc function then starts.
    """
    if case.startswith("mcf"):
        program = REGISTRY.get("mcf").instantiate(KERNEL_SCALE)
        model, budget = KERNEL_MODEL, 777
    else:
        (program, budget), model = corpus_program(case), FUZZ_MODEL
    assert column_parity(program, model, budget)[0] is None
    with split_trace_columns():
        divergence, _ = column_parity(program, model, budget)
    assert divergence is not None
    assert column_parity(program, model, budget)[0] is None
