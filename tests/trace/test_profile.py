"""Per-load service-level profiling (PrLi)."""

from repro.energy import EPITable, EnergyModel
from repro.isa import ProgramBuilder
from repro.machine import CPU, Level
from repro.trace import DependenceTracker, LoadProfiler

from ..conftest import tiny_config


def profile(program):
    tracker = DependenceTracker()
    cpu = CPU(program, EnergyModel(epi=EPITable.default(), config=tiny_config()),
              tracer=tracker)
    cpu.run()
    return LoadProfiler.from_trace(tracker)


def test_repeated_load_profile():
    b = ProgramBuilder()
    arr = b.data([1], read_only=True)
    base, v = b.regs("base", "v")
    b.li(base, arr)
    with b.loop("i", 0, 4):
        b.ld(v, base)
    profiler = profile(b.build())
    (pc,) = profiler.observed_loads()
    probabilities = profiler.service_probabilities(pc)
    # First access misses to memory, the remaining three hit L1.
    assert probabilities[Level.MEM] == 0.25
    assert probabilities[Level.L1] == 0.75
    assert profiler.load_count(pc) == 4


def test_unknown_load_falls_back_to_global():
    b = ProgramBuilder()
    arr = b.data([1], read_only=True)
    base, v = b.regs("base", "v")
    b.li(base, arr)
    b.ld(v, base)
    profiler = profile(b.build())
    assert profiler.service_probabilities(12345) == profiler.global_probabilities()


def test_global_probabilities_without_loads():
    b = ProgramBuilder()
    b.li(b.reg("x"), 1)
    profiler = profile(b.build())
    assert profiler.global_probabilities()[Level.L1] == 1.0


def test_probabilities_sum_to_one():
    b = ProgramBuilder()
    arr = b.data(list(range(64)), read_only=True)
    base, v, addr = b.regs("base", "v", "addr")
    b.li(base, arr)
    with b.loop("i", 0, 64) as i:
        b.add(addr, base, i)
        b.ld(v, addr)
    profiler = profile(b.build())
    for pc in profiler.observed_loads():
        assert abs(sum(profiler.service_probabilities(pc).values()) - 1.0) < 1e-12
