"""The combined profiling runner."""

import gc
import weakref

from repro.trace import profile_program

from ..conftest import build_spill_kernel, tiny_config
from repro.energy import EPITable, EnergyModel, paper_energy_model
from repro.workloads.suite import REGISTRY


def test_profile_program_combines_all_tracers():
    program = build_spill_kernel(iterations=6, gap=4)
    model = EnergyModel(epi=EPITable.default(), config=tiny_config())
    result = profile_program(program, model)
    assert result.dynamic_instructions > 0
    assert len(result.dependence) == result.dynamic_instructions
    assert result.loads.observed_loads()
    assert result.locality.observed_loads()
    assert result.stats.loads_performed > 0


def test_dropped_profile_frees_its_trace_without_a_collection():
    """Generated traced code must not keep the trace columns alive.

    With the cycle collector off, dropping a fast-batched profile must
    free its trace by reference counting alone; anything the generated
    code leaves in a reference cycle would hold the columns, and peak
    memory, until the next full collection.
    """
    program = build_spill_kernel(iterations=6, gap=4)
    model = EnergyModel(epi=EPITable.default(), config=tiny_config())
    gc.collect()
    gc.disable()
    try:
        result = profile_program(program, model, backend="fast-batched")
        columns = weakref.ref(result.dependence._pcs)
        del result
        assert columns() is None
    finally:
        gc.enable()


def test_dropped_kernel_profile_frees_its_tracker_without_a_collection():
    """The same for a kernel whose traced run runs fused loops.

    A fused loop binds its decode table's fault recorder, and the table
    holds the loop: the run must leave no such cycle holding the tracker.
    """
    program = REGISTRY.get("mcf").instantiate(0.25)
    model = paper_energy_model()
    gc.collect()
    gc.disable()
    try:
        result = profile_program(program, model, backend="fast-batched")
        tracker = weakref.ref(result.dependence)
        del result
        assert tracker() is None
    finally:
        gc.enable()
