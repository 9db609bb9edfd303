"""One broken description breaks every fast-path rendering.

The fast path describes each opcode family once and renders per-pc
functions, fused regions and loops, and their traced forms (per-pc
functions and fused loops) from that one description.
:func:`repro.fuzz.faults.stale_load_lru` removes a single statement —
the L1-hit LRU promotion — from the LD description, so the suite must
see every rendering diverge from the hand-written classic interpreter,
and the backend-equivalence oracle must report the divergence on a
committed corpus entry.
"""

import dataclasses
from pathlib import Path

from repro.core.policies import POLICY_NAMES
from repro.energy import EPITable, EnergyModel
from repro.fuzz import (
    check_program,
    default_fuzz_model,
    load_entry,
    materialize,
)
from repro.fuzz.corpus import corpus_paths
from repro.fuzz.faults import stale_load_lru
from repro.isa import Opcode, ProgramBuilder
from repro.machine import CPU, BatchedFastCPU
from repro.trace import DependenceTracker

from ..conftest import tiny_config

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
ENTRY = "loop-carried"


def make_model():
    return EnergyModel(epi=EPITable.default(), config=tiny_config())


def lru_program(fused, looped=False):
    """Load lines A, B, A, C, A of one two-way L1 set (tiny hierarchy).

    With the promotion, C evicts B and the last load of A hits; without
    it, C evicts A.  *fused* keeps the loads in one straight-line region;
    otherwise every load sits alone between jumps and dispatches per pc.
    *looped* puts the fused loads in the body of a one-pass loop.
    """
    name = "lru-looped" if looped else "lru-fused" if fused else "lru-per-pc"
    b = ProgramBuilder(name)
    arr = b.data(list(range(24)))
    base, x = b.regs("base", "x")
    b.li(base, arr)

    def loads():
        for k, offset in enumerate((0, 8, 0, 16, 0)):  # two lines apart
            if not fused:
                b.jmp(f"load{k}")
                b.label(f"load{k}")
            b.ld(x, base, offset)

    if looped:
        with b.loop("i", 0, 1):
            loads()
    else:
        loads()
    b.halt()
    return b.build()


def run(cls, program, tracer=None):
    cpu = cls(program, make_model(), tracer=tracer)
    cpu.run()
    return cpu


def cache_outcome(cpu):
    return (
        dataclasses.asdict(cpu.hierarchy.stats),
        cpu.hierarchy.l1.observe(),
        cpu.account.breakdown(),
        cpu.account.total_time_ns,
    )


def fused_load_pcs(cpu):
    loads = [
        pc
        for pc, instruction in enumerate(cpu.program.instructions)
        if instruction.opcode is Opcode.LD
    ]
    spans = [unit.span for unit in cpu._decoded().units]
    return [pc for pc in loads if any(s <= pc < e for s, e in spans)], loads


def test_twin_breaks_per_pc_functions():
    program = lru_program(fused=False)
    classic = run(CPU, program)
    with stale_load_lru():
        broken = run(BatchedFastCPU, program)
    assert fused_load_pcs(broken)[0] == []
    assert broken.registers == classic.registers
    assert cache_outcome(broken) != cache_outcome(classic)
    # Leaving the context restores the description and drops the code
    # generated from the broken one.
    assert cache_outcome(run(BatchedFastCPU, program)) == cache_outcome(classic)


def service_levels(tracker):
    return [level for _, _, _, level, _ in tracker.memory_accesses()]


def test_twin_breaks_traced_functions():
    programs = (
        lru_program(fused=True),
        lru_program(fused=False),
        lru_program(fused=True, looped=True),
    )
    for program in programs:
        classic_trace, broken_trace = DependenceTracker(), DependenceTracker()
        classic = run(CPU, program, classic_trace)
        with stale_load_lru():
            broken = run(BatchedFastCPU, program, broken_trace)
            # The traced decode fuses the untraced decode's loops and no
            # straight-line region.
            traced = broken._decoded()
            untraced = BatchedFastCPU(program, make_model())._decoded()
        loops = [unit.loop for unit in traced.units]
        assert loops == [unit.loop for unit in untraced.units if unit.loop]
        assert [unit.span for unit in traced.units] == [
            (h + 1, back) for h, back in loops
        ]
        assert bool(loops) == (program.name == "lru-looped")
        # The last load of A misses where classic hits: the level column.
        assert service_levels(broken_trace) != service_levels(classic_trace)
        assert cache_outcome(broken) != cache_outcome(classic)


def test_twin_breaks_fused_regions():
    program = lru_program(fused=True)
    classic = run(CPU, program)
    assert cache_outcome(run(BatchedFastCPU, program)) == cache_outcome(classic)
    with stale_load_lru():
        broken = run(BatchedFastCPU, program)
    fused, loads = fused_load_pcs(broken)
    assert fused == loads
    assert cache_outcome(broken) != cache_outcome(classic)


def test_oracle_reports_the_twin_on_a_corpus_entry():
    (path,) = [
        p for p in corpus_paths(CORPUS_DIR) if p.stem.startswith(ENTRY + "-")
    ]
    entry = load_entry(path)
    program = materialize(entry.spec)
    options = dict(
        spec=entry.spec,
        model=default_fuzz_model(),
        policies=entry.policies or POLICY_NAMES,
        backend="fast-batched",
    )
    assert check_program(program, **options).ok
    with stale_load_lru():
        verdict = check_program(program, **options)
    assert verdict.failures
    assert {failure.kind for failure in verdict.failures} == {"backend"}
