"""Dead-store elision analysis."""

from repro.compiler import compile_amnesic
from repro.compiler.deadstore import (
    analyse_dead_stores,
    analysis_for_compilation,
)
from repro.energy import EPITable, EnergyModel
from repro.isa import ProgramBuilder
from repro.trace import DependenceTracker, profile_program
from repro.machine import CPU

from ..conftest import build_spill_kernel, tiny_config


def make_model():
    return EnergyModel(epi=EPITable.default(), config=tiny_config())


def trace(program):
    tracker = DependenceTracker()
    CPU(program, make_model(), tracer=tracker).run()
    return tracker


def test_store_with_swapped_only_consumer_is_elidable():
    b = ProgramBuilder()
    cell = b.reserve(1)
    base, v = b.regs("base", "v")
    b.li(base, cell)
    with b.loop("i", 0, 4) as i:
        b.st(i, base)   # only consumer is the load below
        b.ld(v, base)
    tracker = trace(b.build())
    store_pc = next(r.pc for r in tracker.records if r.is_store)
    load_pc = next(r.pc for r in tracker.records if r.is_load)

    not_swapped = analyse_dead_stores(tracker, swapped_load_pcs=[])
    assert not not_swapped.elidable_sites

    swapped = analyse_dead_stores(tracker, swapped_load_pcs=[load_pc])
    (site,) = swapped.elidable_sites
    assert site.store_pc == store_pc
    assert swapped.elidable_fraction == 1.0


def test_store_with_unswapped_consumer_is_not_elidable():
    b = ProgramBuilder()
    cell = b.reserve(1)
    base, v, w = b.regs("base", "v", "w")
    b.li(base, cell)
    with b.loop("i", 0, 4) as i:
        b.st(i, base)
        b.ld(v, base)   # swapped
        b.ld(w, base)   # NOT swapped: still needs the stored value
    tracker = trace(b.build())
    load_pcs = sorted({r.pc for r in tracker.records if r.is_load})
    analysis = analyse_dead_stores(tracker, swapped_load_pcs=[load_pcs[0]])
    assert not analysis.elidable_sites


def test_never_read_stores_counted():
    b = ProgramBuilder()
    cell = b.reserve(4)
    base = b.reg("base")
    b.li(base, cell)
    with b.loop("i", 0, 4) as i:
        b.add(base, base, 0)  # keep the loop body non-trivial
        b.st(i, base, offset=0)
    tracker = trace(b.build())
    analysis = analyse_dead_stores(tracker, swapped_load_pcs=[])
    (site,) = analysis.sites
    # Three instances overwritten unread + the final one retired at end.
    assert site.never_read_instances == 4
    # A store nobody reads is trivially elidable.
    assert analysis.elidable_fraction == 1.0


def test_compilation_wrapper_on_spill_kernel():
    program = build_spill_kernel(iterations=10, chain=3, gap=4)
    compilation = compile_amnesic(program, make_model())
    analysis = analysis_for_compilation(compilation)
    assert analysis.total_dynamic_stores > 0
    # The spill store's only consumer is the swapped reload.
    assert analysis.elidable_dynamic_stores > 0


def test_fraction_of_empty_trace_is_zero():
    analysis = analyse_dead_stores(DependenceTracker(), swapped_load_pcs=[])
    assert analysis.elidable_fraction == 0.0
