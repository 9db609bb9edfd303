"""Property tests for the region analysis and the batched backend.

Three invariants, checked over generated fuzz programs (Hypothesis
drives the spec seed) and the committed regression corpus:

1. **Partition** — the region analysis covers every non-control,
   non-amnesic pc exactly once, and nothing else; regions never
   overlap and never leave the program.
2. **Straight line** — no control transfer or amnesic opcode sits
   inside any region.  Every reported self-loop has the claimed shape:
   a conditional branch falling through into one batchable, non-slice
   region closed by a ``JMP`` back to the branch.
3. **Same dynamic footprint** — the batched backend visits exactly the
   per-pc dynamic instruction counts the classic interpreter does, on
   clean runs and on faulting ones (fused partial flushes and budget
   trips inside fused code included), with matching faults.
"""

from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.fuzz import (
    default_fuzz_model,
    load_entry,
    materialize,
    random_spec,
)
from repro.fuzz.corpus import corpus_paths
from repro.fuzz.oracle import DEFAULT_MAX_INSTRUCTIONS
from repro.isa import Category, Opcode
from repro.machine import CPU, BatchedFastCPU
from repro.staticcheck import analyze_regions
from repro.staticcheck.regions import AMNESIC_OPCODES

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

#: One shared model: EnergyModel is immutable run-to-run state.
MODEL = default_fuzz_model()


def generated_program(seed):
    try:
        return materialize(random_spec(seed))
    except ReproError:
        return None


def is_batchable(instruction):
    opcode = instruction.opcode
    return not opcode.category.is_control and opcode not in AMNESIC_OPCODES


def assert_regions_partition(program):
    analysis = analyze_regions(program)
    covered = {}
    for region in analysis.regions:
        assert 0 <= region.start < region.end <= len(program.instructions)
        for pc in range(region.start, region.end):
            assert pc not in covered, f"pc {pc} in two regions"
            covered[pc] = region
    for pc, instruction in enumerate(program.instructions):
        assert (pc in covered) == is_batchable(instruction), (
            f"pc {pc} ({instruction.opcode.name}) "
            f"{'covered' if pc in covered else 'missed'}"
        )
    return analysis


def assert_regions_straight_line(program, analysis):
    for region in analysis.regions:
        for pc in range(region.start, region.end):
            opcode = program.instructions[pc].opcode
            assert not opcode.category.is_control
            assert opcode not in AMNESIC_OPCODES


def assert_loops_shaped(program, analysis):
    regions = set(analysis.regions)
    for loop in analysis.loops:
        body = loop.body
        assert body in regions
        assert body.start == loop.header + 1 and body.end == loop.back
        assert body.length >= 2
        assert not body.in_slice
        header = program.instructions[loop.header]
        assert header.opcode.category is Category.BRANCH
        assert header.target in program.labels
        back = program.instructions[loop.back]
        assert back.opcode is Opcode.JMP
        assert program.labels[back.target] == loop.header
        assert loop.length == loop.back - loop.header + 1


def classic_visit_counts(program, max_instructions):
    """Per-pc dynamic visit counts under classic count semantics.

    Classic counts an instruction when it begins executing: a pending
    instruction blocked by the budget is *not* counted, a faulting one
    *is*.  Stepping one instruction at a time makes that observable
    per pc.
    """
    cpu = CPU(program, MODEL, max_instructions=max_instructions)
    counts = [0] * len(program.instructions)
    error = None
    try:
        while not cpu.halted:
            pc = cpu.pc
            if pc < len(counts) and cpu.dynamic_count < max_instructions:
                counts[pc] += 1
            cpu.step()
    except ReproError as exc:
        error = f"{type(exc).__name__}: {exc}"
    return counts, error


def batched_visit_counts(program, max_instructions):
    cpu = BatchedFastCPU(program, MODEL, max_instructions=max_instructions)
    error = None
    try:
        cpu.run()
    except ReproError as exc:
        error = f"{type(exc).__name__}: {exc}"
    return cpu._batch_visit_counts, error


def assert_same_dynamic_footprint(program, max_instructions):
    classic, classic_err = classic_visit_counts(program, max_instructions)
    batched, batched_err = batched_visit_counts(program, max_instructions)
    assert classic_err == batched_err
    assert classic == batched, (
        "per-pc visit counts diverged at pcs "
        f"{[pc for pc, (c, b) in enumerate(zip(classic, batched)) if c != b]}"
    )


# ----------------------------------------------------------------------
# Generated programs (Hypothesis drives the generator seed).
# ----------------------------------------------------------------------


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=settings.default.max_examples // 4)
def test_regions_partition_generated_programs(seed):
    program = generated_program(seed)
    assume(program is not None)
    analysis = assert_regions_partition(program)
    assert_regions_straight_line(program, analysis)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=settings.default.max_examples // 4)
def test_reported_loops_have_the_claimed_shape(seed):
    program = generated_program(seed)
    assume(program is not None)
    assert_loops_shaped(program, analyze_regions(program))


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    budget=st.one_of(st.none(), st.integers(min_value=1, max_value=200)),
)
@settings(max_examples=settings.default.max_examples // 4)
def test_batched_visits_classic_pcs_on_generated_programs(seed, budget):
    # ``budget=None`` exercises clean completion (or the program's own
    # classic fault); small budgets land the limit at arbitrary region
    # offsets, covering a fused entry that runs only its first element.
    program = generated_program(seed)
    assume(program is not None)
    assert_same_dynamic_footprint(program, budget or DEFAULT_MAX_INSTRUCTIONS)


# ----------------------------------------------------------------------
# The committed corpus: every entry, both invariants.
# ----------------------------------------------------------------------


def entry_ids():
    return [path.stem for path in corpus_paths(CORPUS_DIR)]


@pytest.mark.parametrize("path", corpus_paths(CORPUS_DIR), ids=entry_ids())
def test_corpus_program_regions_partition(path):
    program = materialize(load_entry(path).spec)
    analysis = assert_regions_partition(program)
    assert_regions_straight_line(program, analysis)
    assert_loops_shaped(program, analysis)


def test_corpus_reports_loops():
    # The shape check above is vacuous unless the corpus has loops.
    assert any(
        analyze_regions(materialize(load_entry(path).spec)).loops
        for path in corpus_paths(CORPUS_DIR)
    )


@pytest.mark.parametrize("path", corpus_paths(CORPUS_DIR), ids=entry_ids())
def test_corpus_program_batched_visits_classic_pcs(path):
    entry = load_entry(path)
    program = materialize(entry.spec)
    assert_same_dynamic_footprint(
        program, entry.max_instructions or DEFAULT_MAX_INSTRUCTIONS
    )
