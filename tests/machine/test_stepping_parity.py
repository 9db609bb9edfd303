"""The classic run loop retires exactly what single-stepping retires.

``CPU.run`` inlines ``step()``: its plain loop makes the budget check,
the fetch with its off-end fault, the count before execute and the
dispatch itself, and calls only the handler.  Nothing else ties the two
together, and ``step()`` is the per-pc reference other tests build on
(the region property test's visit counts).  So a CPU driven by
``step()`` (then ``finalize()`` after ``HALT``) and one driven by
``run()`` must end with equal :func:`~repro.fuzz.oracle._observable`
state and the same fault (type, message and pc), on

* every corpus entry's program, and its binaries under the five policies;
* mcf, is and bfs at scale 0.1, plain and under FLC;
* budgets one below, at and one above a fault's index and a budget trip
  inside a loop;
* one small program per fault the handlers raise (off-end fetch,
  non-integer address, unmapped read, read-only store, ``JR`` range,
  non-register destination, an operand classic cannot read, an amnesic
  opcode on the classic CPU);
* generated programs, with and without a small budget.

A profiled run takes the same loop over a dispatch table that samples,
so every corpus entry's program and binaries also run under a
:class:`~repro.telemetry.profiler.HotLoopProfiler` at strides 1 and 7,
on both backends (the fast one hands profiled runs to the classic
loop), and end as the stepped CPU does; a halted profiled run's rows
add up to its instructions.

``LATE_COUNT`` (:mod:`repro.fuzz.faults`), a run loop that counts each
instruction after its handler returns, must fail this check on a
faulting program, profiled or not, and the oracle on the
``batch-pure-trap`` entry.
"""

from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.amnesic_cpu import AmnesicCPU
from repro.core.backend import BatchedFastAmnesicCPU
from repro.core.execution import prepare_evaluation
from repro.core.policies import POLICY_NAMES, make_policy
from repro.energy import paper_energy_model
from repro.errors import ReproError
from repro.fuzz import default_fuzz_model, load_entry, materialize, random_spec
from repro.fuzz.corpus import corpus_paths
from repro.fuzz.faults import LATE_COUNT
from repro.fuzz.oracle import DEFAULT_MAX_INSTRUCTIONS, _observable
from repro.fuzz.runner import entry_satisfied, replay_entry
from repro.isa import Imm, Instruction, Opcode, Reg, SReg, alu, halt, load, rec, store
from repro.isa.program import Program
from repro.machine import CPU, BatchedFastCPU
from repro.telemetry.profiler import HotLoopProfiler
from repro.telemetry.runtime import telemetry_session
from repro.workloads.suite import get

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

FUZZ_MODEL = default_fuzz_model()
KERNEL_MODEL = paper_energy_model()


def stepped(cpu):
    while not cpu.halted:
        cpu.step()
    cpu.finalize()


def outcome(cpu, drive):
    """``(observable state, fault)`` after *drive* ends; fault is None on HALT."""
    try:
        drive(cpu)
    except Exception as caught:  # a raw Python error must match too
        fault = (type(caught).__name__, str(caught), getattr(caught, "pc", None))
    else:
        fault = None
    return _observable(cpu), fault


def run(cpu):
    cpu.run()


def profiled(stride):
    """Drive a CPU by ``run()`` under a profiler sampling every *stride* dispatches.

    A run that halts must reconcile: its rows add up to its instructions.
    """

    def drive(cpu):
        profiler = HotLoopProfiler(sample_every=stride)
        with telemetry_session(profiler=profiler):
            cpu.run()
        assert profiler.runs == 1
        assert profiler.totals().instructions == cpu.dynamic_count

    return drive


def divergence(make, drive=run):
    """What a *drive*-driven CPU from *make* ends with that a stepped one does not."""
    expected, expected_fault = outcome(make(), stepped)
    actual, actual_fault = outcome(make(), drive)
    found = [what for what, value in expected.items() if actual[what] != value]
    if actual_fault != expected_fault:
        found.append(f"fault: stepped {expected_fault}, run {actual_fault}")
    return found


def assert_parity(make, drive=run):
    assert divergence(make, drive) == []


def plain(program, model, budget, cls=CPU):
    return lambda: cls(program, model, max_instructions=budget)


def amnesic(binary, model, policy, budget, cls=AmnesicCPU):
    return lambda: cls(
        binary, model, make_policy(policy), max_instructions=budget, verify=False
    )


def binaries(program, model, budget):
    """The binary each policy runs, compiled as the oracle compiles them."""
    setup = prepare_evaluation(
        program, model, max_instructions=budget, backend="fast-batched"
    )
    return {policy: setup.compilation_for(policy).binary for policy in POLICY_NAMES}


def entry_ids():
    return [path.stem for path in corpus_paths(CORPUS_DIR)]


def fault_index(make):
    """The number of instructions a run from *make* retires before it faults."""
    cpu = make()
    with pytest.raises(ReproError):
        cpu.run()
    return cpu.dynamic_count


def entry_cpus(path, backends):
    """Makers of CPUs running a corpus entry's program and its binaries.

    One per ``(classic, amnesic)`` class pair in *backends*: the plain
    program on the classic class and, when it compiles, each policy's
    binary on the amnesic one.
    """
    entry = load_entry(path)
    program = materialize(entry.spec)
    budget = entry.max_instructions or DEFAULT_MAX_INSTRUCTIONS
    makers = [plain(program, FUZZ_MODEL, budget, cls) for cls, _ in backends]
    try:
        compiled = binaries(program, FUZZ_MODEL, budget)
    except ReproError:
        return makers  # the classic run faults: nothing compiles
    for policy, binary in compiled.items():
        makers += [
            amnesic(binary, FUZZ_MODEL, policy, budget, cls) for _, cls in backends
        ]
    return makers


@pytest.mark.parametrize("path", corpus_paths(CORPUS_DIR), ids=entry_ids())
def test_corpus_programs_and_binaries_step_as_they_run(path):
    for make in entry_cpus(path, [(CPU, AmnesicCPU)]):
        assert_parity(make)


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("path", corpus_paths(CORPUS_DIR), ids=entry_ids())
def test_corpus_programs_and_binaries_step_as_they_run_profiled(path, stride):
    backends = [(CPU, AmnesicCPU), (BatchedFastCPU, BatchedFastAmnesicCPU)]
    for make in entry_cpus(path, backends):
        assert_parity(make, profiled(stride))


@pytest.mark.parametrize("kernel", ["mcf", "is", "bfs"])
def test_kernels_step_as_they_run(kernel):
    program = get(kernel).instantiate(0.1)
    assert_parity(plain(program, KERNEL_MODEL, DEFAULT_MAX_INSTRUCTIONS))
    binary = binaries(program, KERNEL_MODEL, DEFAULT_MAX_INSTRUCTIONS)["FLC"]
    assert_parity(amnesic(binary, KERNEL_MODEL, "FLC", DEFAULT_MAX_INSTRUCTIONS))


def entry_path(name):
    return next(
        path for path in corpus_paths(CORPUS_DIR) if path.stem.startswith(name + "-")
    )


def trap_program():
    return materialize(load_entry(entry_path("batch-pure-trap")).spec)


def test_budgets_around_a_fault_step_as_they_run():
    program = trap_program()
    k = fault_index(plain(program, FUZZ_MODEL, DEFAULT_MAX_INSTRUCTIONS))
    for budget in (k - 1, k, k + 1):
        assert_parity(plain(program, FUZZ_MODEL, budget))


def test_budgets_around_a_mid_loop_trip_step_as_they_run():
    program = get("mcf").instantiate(0.1)
    binary = binaries(program, KERNEL_MODEL, DEFAULT_MAX_INSTRUCTIONS)["FLC"]
    for budget in (776, 777, 778):
        assert_parity(plain(program, KERNEL_MODEL, budget))
        assert_parity(amnesic(binary, KERNEL_MODEL, "FLC", budget))


def faulting(name, *instructions):
    program = Program(name)
    program.data.place(100, [1, 2], read_only=True)
    for instruction in instructions:
        program.append(instruction)
    return program


R1, R2 = Reg(1), Reg(2)
FAULTING = [
    faulting("off-end", alu(Opcode.LI, R1, Imm(1))),
    faulting(
        "non-integer-address", alu(Opcode.LI, R1, Imm(0.5)), load(R2, R1), halt()
    ),
    faulting("unmapped-read", alu(Opcode.LI, R1, Imm(12345)), load(R2, R1), halt()),
    faulting("read-only-store", alu(Opcode.LI, R1, Imm(100)), store(R1, R1), halt()),
    faulting(
        "jr-range",
        alu(Opcode.LI, R1, Imm(99)),
        Instruction(Opcode.JR, srcs=(R1,)),
        halt(),
    ),
    faulting("scratch-destination", alu(Opcode.ADD, SReg(0), R1, Imm(1)), halt()),
    faulting("scratch-operand", alu(Opcode.ADD, R1, SReg(0), Imm(1)), halt()),
    faulting("rec-on-classic", rec(0, 0, (R1,)), halt()),
]


@pytest.mark.parametrize("program", FAULTING, ids=lambda program: program.name)
def test_every_handler_fault_steps_as_it_runs(program):
    make = plain(program, FUZZ_MODEL, DEFAULT_MAX_INSTRUCTIONS)
    fault_index(make)  # the program does fault
    assert_parity(make)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    budget=st.one_of(st.none(), st.integers(min_value=1, max_value=200)),
)
@settings(max_examples=settings.default.max_examples // 4)
def test_generated_programs_step_as_they_run(seed, budget):
    try:
        program = materialize(random_spec(seed))
    except ReproError:
        assume(False)
    assert_parity(plain(program, FUZZ_MODEL, budget or DEFAULT_MAX_INSTRUCTIONS))


def test_late_count_fails_stepping_parity_on_a_fault_only():
    program = trap_program()
    k = fault_index(plain(program, FUZZ_MODEL, DEFAULT_MAX_INSTRUCTIONS))
    late = plain(program, FUZZ_MODEL, DEFAULT_MAX_INSTRUCTIONS, LATE_COUNT.cpu_cls)
    assert divergence(late) == ["run stats"]
    # A budget trip raises before the fetch, so counting late is exact.
    assert divergence(plain(program, FUZZ_MODEL, k, LATE_COUNT.cpu_cls)) == []


@pytest.mark.parametrize("stride", [1, 7])
def test_late_count_fails_profiled_stepping_parity_on_a_fault_only(stride):
    # A profiled run takes the loop the twin breaks.
    program = trap_program()
    k = fault_index(plain(program, FUZZ_MODEL, DEFAULT_MAX_INSTRUCTIONS))
    late = plain(program, FUZZ_MODEL, DEFAULT_MAX_INSTRUCTIONS, LATE_COUNT.cpu_cls)
    assert divergence(late, profiled(stride)) == ["run stats"]
    budget = plain(program, FUZZ_MODEL, k, LATE_COUNT.cpu_cls)
    assert divergence(budget, profiled(stride)) == []


@pytest.mark.parametrize(
    "name, caught",
    [("batch-pure-trap", True), ("batch-budget-edge", False), ("loop-carried", False)],
)
def test_oracle_catches_late_count_on_the_trap_entry(name, caught):
    entry = load_entry(entry_path(name))
    verdict = replay_entry(entry, FUZZ_MODEL, backend=LATE_COUNT)
    diverged = [
        failure
        for failure in verdict.failures
        if failure.kind == "backend"
        and failure.message.startswith("run stats diverged")
    ]
    assert bool(diverged) is caught, verdict.summary()
    assert entry_satisfied(entry, verdict) is not caught
