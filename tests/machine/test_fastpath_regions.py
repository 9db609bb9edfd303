"""Batched fast backend: fused regions, proven byte-identical.

The batched backend consumes the static region analysis
(``repro.staticcheck.regions``) at predecode time and fuses each
batchable straight-line run into a single dispatch.  Its contract is
the per-pc fast path's contract, unchanged: architectural state, RunStats,
cache state, energy/time accounts, and fault type/message/pc must all
be byte-for-byte the classic interpreter's — including when a memory
fault, an arithmetic trap or the instruction budget lands *inside* a
fused region, when a JR enters a region mid-run, and when a region runs
to the very end of the program.  These tests pin that contract on
hand-built adversarial programs and on every suite kernel; they also
prove the test layer has teeth by running the deliberately broken
late-flush batcher (``repro.fuzz.faults.late_flush``) and asserting
both this suite and the differential oracle catch it.
"""

import dataclasses
import pickle
from pathlib import Path

import pytest

from repro.energy import EPITable, EnergyModel
from repro.errors import (
    ArithmeticFault,
    ExecutionLimitExceeded,
    MachineFault,
    MemoryFault,
    ReproError,
)
from repro.fuzz import (
    check_program,
    check_spec,
    default_fuzz_model,
    load_entry,
    materialize,
)
from repro.fuzz.corpus import corpus_paths
from repro.fuzz.faults import late_flush
from repro.isa import Opcode, ProgramBuilder
from repro.machine import CPU, BatchedFastCPU
from repro.workloads import all_specs

from ..conftest import tiny_config

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


def make_model():
    return EnergyModel(epi=EPITable.default(), config=tiny_config())


def run_both(program, max_instructions=100_000, batched_cls=BatchedFastCPU):
    """Run *program* classic and batched; assert fault parity.

    Unlike ``test_fastpath.run_pair`` this returns both outcomes even on
    the fault path (budget sweeps assert state after matching faults).
    """
    outcomes = []
    for cls in (CPU, batched_cls):
        cpu = cls(program, make_model(), max_instructions=max_instructions)
        error = None
        try:
            cpu.run()
        except ReproError as caught:
            error = caught
        outcomes.append((cpu, error))
    (classic, classic_err), (batched, batched_err) = outcomes
    assert (classic_err is None) == (batched_err is None), (
        f"fault divergence: classic {classic_err!r}, batched {batched_err!r}"
    )
    if classic_err is not None:
        assert type(classic_err) is type(batched_err)
        assert str(classic_err) == str(batched_err)
        assert getattr(classic_err, "pc", None) == getattr(
            batched_err, "pc", None
        )
    return outcomes


def assert_state_equal(classic, batched):
    assert classic.registers == batched.registers
    assert classic.memory.snapshot() == batched.memory.snapshot()
    assert classic.pc == batched.pc
    assert classic.dynamic_count == batched.dynamic_count
    assert dataclasses.asdict(classic.stats) == dataclasses.asdict(
        batched.stats
    )
    assert dataclasses.asdict(classic.hierarchy.stats) == dataclasses.asdict(
        batched.hierarchy.stats
    )
    assert classic.hierarchy.l1.observe() == batched.hierarchy.l1.observe()
    assert classic.hierarchy.l2.observe() == batched.hierarchy.l2.observe()
    # Exact floats: fused elements must charge in classic order.
    assert classic.account.breakdown() == batched.account.breakdown()
    assert classic.account.total_time_ns == batched.account.total_time_ns


def fused_spans(cpu):
    """Straight-line spans compiled into fused code (loop bodies too)."""
    return [unit.span for unit in cpu._decoded().units]


def fused_loops(cpu):
    """``(header, loop-back)`` pcs of each loop fused into one dispatch."""
    return [unit.loop for unit in cpu._decoded().units if unit.loop]


# ----------------------------------------------------------------------
# Adversarial programs.
# ----------------------------------------------------------------------


def hot_region_kernel(iterations=40, name="hot-region"):
    """A loop whose body is one long fusable memory region."""
    b = ProgramBuilder(name)
    arr = b.data(list(range(64)))
    slots = b.reserve(8)
    base, slot, v, w, acc = b.regs("base", "slot", "v", "w", "acc")
    b.li(base, arr)
    b.li(slot, slots)
    b.li(acc, 0)
    with b.loop("i", 0, iterations) as i:
        b.op(Opcode.AND, v, i, 63)
        b.add(v, v, base)
        b.ld(v, v)
        b.op(Opcode.XOR, w, v, i)
        b.add(acc, acc, w)
        b.st(acc, slot)
    b.halt()
    return b.build()


def unmapped_load_program():
    """A fused memory region whose third element reads unmapped memory."""
    b = ProgramBuilder("unmapped-load")
    a, x, y = b.regs("a", "x", "y")
    b.li(a, 0x90000)
    b.li(x, 7)
    b.add(y, x, x)
    b.ld(y, a)  # MemoryFault at fused offset 3
    b.halt()
    return b.build()


# ----------------------------------------------------------------------
# Fused-path semantics.
# ----------------------------------------------------------------------


def test_hot_region_kernel_is_bit_identical():
    (classic, _), (batched, _) = run_both(hot_region_kernel())
    assert_state_equal(classic, batched)
    assert batched.halted
    # The loop body actually fused (this test would otherwise only be
    # re-testing the per-pc functions).
    assert any(end - start >= 2 for start, end in fused_spans(batched))


def test_mid_region_memory_fault_parity():
    program = unmapped_load_program()
    (classic, err), (batched, _) = run_both(program)
    assert isinstance(err, MemoryFault)
    assert "unmapped" in str(err)
    assert_state_equal(classic, batched)
    # The faulting load sat inside a fused region, so the parity above
    # exercised the partial count flush, not the per-pc fallback.
    assert any(start <= 3 < end for start, end in fused_spans(batched))
    # Classic counts before executing: the faulting load is in stats.
    assert classic.stats.dynamic_instructions == 4


def test_budget_sweep_across_region_boundaries():
    """Every budget from 1 to past-clean-completion matches classic.

    The sweep necessarily lands budgets on region starts, region
    interiors (reached per pc after a fused entry that ran only its
    first element), and non-region pcs; each one must reproduce the
    classic fault pc, message, counts, and accounts exactly.
    """
    program = hot_region_kernel(iterations=4)
    clean = CPU(program, make_model())
    clean.run()
    total = clean.dynamic_count
    interior_trips = 0
    for budget in range(1, total + 2):
        (classic, err), (batched, _) = run_both(
            program, max_instructions=budget
        )
        assert_state_equal(classic, batched)
        if budget < total:
            assert isinstance(err, ExecutionLimitExceeded)
            if any(
                start < classic.pc < end
                for start, end in fused_spans(batched)
            ):
                interior_trips += 1
        else:
            assert err is None
    assert interior_trips > 0, "sweep never tripped inside a fused region"


def test_jr_into_region_interior():
    b = ProgramBuilder("jr-interior")
    t, x = b.regs("t", "x")
    b.li(t, 5)
    b.ret(t)  # jump-register into the middle of the region below
    b.li(x, 1)  # pc 2: region start (never executed)
    b.add(x, x, x)
    b.add(x, x, x)
    b.add(x, x, x)  # pc 5: the JR target
    b.add(x, x, x)
    b.halt()
    program = b.build()
    (classic, _), (batched, _) = run_both(program)
    assert_state_equal(classic, batched)
    spans = fused_spans(batched)
    assert any(start < 5 < end for start, end in spans), (
        f"expected a fused region spanning pc 5, got {spans}"
    )


def test_region_running_to_program_end_faults_off_the_end():
    from repro.isa import Program, Reg, li as make_li

    program = Program()
    program.append(make_li(Reg(1), 1))
    program.append(make_li(Reg(2), 2))  # region [0, 2), no HALT
    (classic, err), (batched, _) = run_both(program)
    assert isinstance(err, MachineFault)
    assert "ran off" in str(err)
    assert_state_equal(classic, batched)
    assert (0, 2) in fused_spans(batched)


def test_aliasing_stores_within_one_region():
    b = ProgramBuilder("alias-stores")
    slots = b.reserve(4)
    s, x, y = b.regs("s", "x", "y")
    b.li(s, slots)
    b.li(x, 11)
    b.st(x, s)
    b.li(y, 22)
    b.st(y, s)  # same line, same word: last write must win
    b.ld(x, s)
    b.halt()
    (classic, _), (batched, _) = run_both(b.build())
    assert_state_equal(classic, batched)
    assert any(end - start >= 6 for start, end in fused_spans(batched))


def test_trapping_region_fuses():
    b = ProgramBuilder("div-region")
    x, y = b.regs("x", "y")
    b.li(x, 5)
    b.li(y, 0)
    b.op(Opcode.DIV, x, x, y)  # ArithmeticFault at fused offset 2
    b.halt()
    program = b.build()
    (classic, err), (batched, _) = run_both(program)
    assert isinstance(err, ArithmeticFault)
    assert_state_equal(classic, batched)
    # The DIV marks its fault point, so the run fuses and the trap takes
    # the fused fault path.
    assert fused_spans(batched) == [(0, 3)]
    assert classic.stats.dynamic_instructions == 3
    # The broken flush drops exactly the trapping element's count.
    with late_flush():
        bad = BatchedFastCPU(program, make_model())
        with pytest.raises(ArithmeticFault):
            bad.run()
    assert (
        bad.stats.dynamic_instructions
        == classic.stats.dynamic_instructions - 1
    )
    assert bad.registers == classic.registers


def test_repeated_runs_flush_clean():
    # The deferred counters are zeroed at flush; a second run must not
    # double-count the first run's region passes.
    program = hot_region_kernel(iterations=3)
    batched = BatchedFastCPU(program, make_model())
    batched.run()
    first = batched.stats.dynamic_instructions
    classic = CPU(program, make_model())
    classic.run()
    assert first == classic.stats.dynamic_instructions


def test_getstate_chain_ends_at_cpu():
    # ``object.__getstate__`` exists only from Python 3.11, so the chain
    # every CPU pickles through must end at CPU's own.
    from repro.core.backend import BatchedFastAmnesicCPU

    *bases, root = BatchedFastAmnesicCPU.__mro__
    assert root is object
    defining = [cls for cls in bases if "__getstate__" in vars(cls)]
    assert defining[-1] is CPU
    cpu = CPU(hot_region_kernel(iterations=2), make_model())
    state = cpu.__getstate__()
    assert state == cpu.__dict__ and state is not cpu.__dict__


def test_pickle_round_trip_of_a_fast_amnesic_cpu():
    from repro.compiler.amnesic_pass import compile_amnesic
    from repro.core.backend import BatchedFastAmnesicCPU
    from repro.core.policies import make_policy
    from repro.fuzz.oracle import _observable

    from ..conftest import build_spill_kernel

    model = make_model()
    binary = compile_amnesic(build_spill_kernel(), model).binary
    cpu = BatchedFastAmnesicCPU(binary, model, make_policy("FLC"))
    cpu.run()
    assert cpu.stats.recomputations_fired > 0
    assert "_batch_decode" in cpu.__dict__
    clone = pickle.loads(pickle.dumps(cpu))
    assert "_batch_decode" not in clone.__dict__
    assert _observable(clone) == _observable(cpu)


def test_pickle_drops_the_batched_decode_cache():
    program = hot_region_kernel(iterations=2)
    cpu = BatchedFastCPU(program, make_model())
    cpu.run()
    assert "_batch_decode" in cpu.__dict__
    state = cpu.__getstate__()
    assert "_batch_decode" not in state
    clone = pickle.loads(pickle.dumps(cpu))
    assert "_batch_decode" not in clone.__dict__


# ----------------------------------------------------------------------
# The whole suite, classic vs batched.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("spec", all_specs(), ids=lambda spec: spec.name)
def test_every_kernel_matches_classic(spec):
    program = spec.instantiate(0.25)
    (classic, err), (batched, _) = run_both(
        program, max_instructions=5_000_000
    )
    assert err is None
    assert_state_equal(classic, batched)


def test_kernels_actually_fuse_regions():
    # Coverage smoke: the parity sweep above is vacuous for the batched
    # paths unless the kernels' hot loops actually fuse.
    fused = sum(
        1
        for spec in all_specs()
        if fused_spans(BatchedFastCPU(spec.instantiate(0.25), make_model()))
    )
    assert fused == len(all_specs()), (
        f"only {fused}/{len(all_specs())} kernels produced fused regions"
    )


# ----------------------------------------------------------------------
# Slice abort path: a fault mid-traversal must produce the same partial
# accounting on every backend.  No suite kernel faults inside a slice,
# so the fused slice function's except path is only exercised here.
# ----------------------------------------------------------------------


def poisoned_binary(compilation, position):
    """Rewrite slice 0 so one element is a guaranteed DIV-by-zero.

    ``position`` picks the faulting element: ``"first"`` faults before
    anything is written back, ``"last"`` faults after every earlier
    element already charged energy and counted instructions — the case
    that checks the batched backend's partial-prefix writeback.
    """
    import copy

    from repro.isa import Imm, Instruction

    corrupted = copy.deepcopy(compilation.binary)
    region = corrupted.program.slices[0]
    pc = region.start if position == "first" else region.end - 2
    victim = corrupted.program.instructions[pc]
    corrupted.program.instructions[pc] = Instruction(
        Opcode.DIV,
        dest=victim.dest,
        srcs=(Imm(1), Imm(0)),
        leaf_id=victim.leaf_id,
    )
    return corrupted


@pytest.mark.parametrize("kernel", ["bfs", "cg", "sx"])
@pytest.mark.parametrize("position", ["first", "last"])
def test_slice_abort_parity_across_backends(kernel, position):
    from repro.compiler.amnesic_pass import compile_amnesic
    from repro.core.backend import BACKENDS
    from repro.core.policies import make_policy
    from repro.energy import paper_energy_model
    from repro.workloads import SCALE_SMALL, get

    model = paper_energy_model()
    program = get(kernel).instantiate(SCALE_SMALL)
    corrupted = poisoned_binary(compile_amnesic(program, model), position)
    results = {}
    for name, backend in BACKENDS.items():
        cpu = backend.amnesic_cls(
            corrupted, model, make_policy("Compiler"), verify=True
        )
        cpu.run()  # completes: every abort falls back to the real load
        results[name] = cpu
    reference = results["classic"]
    assert reference.stats.recomputation_aborts > 0
    for name, cpu in results.items():
        assert dataclasses.asdict(cpu.stats) == dataclasses.asdict(
            reference.stats
        ), name
        assert cpu.account.snapshot() == reference.account.snapshot(), name
        assert cpu.registers == reference.registers, name
        assert cpu.memory.snapshot() == reference.memory.snapshot(), name
        # The scratch file's counters come from the fused slice's static
        # prefix at the faulting element; Hist/IBuff order from inline
        # LRU promotions.
        for structure in ("sfile", "hist", "ibuff"):
            assert (
                getattr(cpu, structure).observe()
                == getattr(reference, structure).observe()
            ), (name, structure)
        assert cpu.hist.entries() == reference.hist.entries(), name
        assert cpu.ibuff.entries() == reference.ibuff.entries(), name


@pytest.mark.parametrize("kernel", ["bfs", "cg", "sx"])
def test_fused_slice_reruns_the_reference_once_per_abort(kernel, monkeypatch):
    # A fused slice that raises leaves the machine untouched and hands
    # the slice to the reference traversal, which faults as classic
    # does; a slice that does not raise never reaches it.
    from repro.compiler.amnesic_pass import compile_amnesic
    from repro.core.amnesic_cpu import AmnesicCPU
    from repro.core.backend import BatchedFastAmnesicCPU
    from repro.core.policies import make_policy
    from repro.energy import paper_energy_model
    from repro.workloads import SCALE_SMALL, get

    calls = []
    reference = AmnesicCPU._traverse_slice

    def spy(self, info):
        calls.append(info.slice_id)
        return reference(self, info)

    monkeypatch.setattr(AmnesicCPU, "_traverse_slice", spy)
    model = paper_energy_model()
    compilation = compile_amnesic(get(kernel).instantiate(SCALE_SMALL), model)
    for position in (None, "first", "last"):
        binary = (
            compilation.binary
            if position is None
            else poisoned_binary(compilation, position)
        )
        cpu = BatchedFastAmnesicCPU(binary, model, make_policy("Compiler"))
        cpu.run()
        assert cpu.stats.recomputations_fired > 0
        aborts = cpu.stats.recomputation_aborts
        assert (aborts > 0) == (position is not None)
        assert calls == [0] * aborts, position
        calls.clear()


# ----------------------------------------------------------------------
# The broken batcher: this suite and the oracle must both catch it.
# ----------------------------------------------------------------------


def corpus_entry(stem):
    paths = [
        path
        for path in corpus_paths(CORPUS_DIR)
        if path.name.startswith(stem + "-")
    ]
    assert paths, f"corpus lost the {stem} shape"
    return load_entry(paths[0])


def budget_edge_entry():
    return corpus_entry("batch-budget-edge")


def test_late_flush_batcher_caught_on_fused_memory_fault():
    program = unmapped_load_program()

    def faulted(cls):
        cpu = cls(program, make_model())
        with pytest.raises(MemoryFault):
            cpu.run()
        return cpu

    classic, good = faulted(CPU), faulted(BatchedFastCPU)
    with late_flush():
        bad = faulted(BatchedFastCPU)
    assert (
        good.stats.dynamic_instructions == classic.stats.dynamic_instructions
    )
    # The broken flush drops exactly the faulting element's count:
    # classic counts before executing, so this is an off-by-one a naive
    # batcher plausibly ships — and registers/memory/fault stay
    # identical, so only the stats channel can catch it.
    assert (
        bad.stats.dynamic_instructions
        == classic.stats.dynamic_instructions - 1
    )
    assert bad.registers == classic.registers
    assert bad.memory.snapshot() == classic.memory.snapshot()


def test_oracle_passes_the_good_batcher_on_the_budget_edge():
    entry = budget_edge_entry()
    verdict = check_program(
        materialize(entry.spec),
        spec=entry.spec,
        model=default_fuzz_model(),
        max_instructions=entry.max_instructions,
        backend="fast-batched",
    )
    # The classic run exhausts the budget mid-region by design; parity
    # holds, so the verdict is invalid (fault reproduced) — not failing.
    assert verdict.invalid and not verdict.failures, verdict.summary()


def test_oracle_catches_the_late_flush_batcher():
    # The scheduled trap lands inside a fused region, so the broken
    # flush comes up one count short on the fused fault path.
    entry = corpus_entry("batch-pure-trap")
    with late_flush():
        verdict = check_spec(
            entry.spec, model=default_fuzz_model(), backend="fast-batched"
        )
    assert verdict.failures, (
        "the oracle let the broken batcher through: "
        + verdict.summary()
    )
    assert any(failure.kind == "backend" for failure in verdict.failures)
    assert any(
        "run stats diverged" in failure.message for failure in verdict.failures
    )
