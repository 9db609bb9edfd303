"""Value locality measurement."""

import pytest

from repro.energy import EPITable, EnergyModel
from repro.isa import ProgramBuilder
from repro.machine import CPU
from repro.trace import DependenceTracker, ValueLocalityTracker

from ..conftest import tiny_config


def run_with_tracker(program, depth=4):
    tracker = DependenceTracker()
    cpu = CPU(program, EnergyModel(epi=EPITable.default(), config=tiny_config()),
              tracer=tracker)
    cpu.run()
    return ValueLocalityTracker.from_trace(tracker, history_depth=depth)


def constant_load_program(repeats):
    b = ProgramBuilder()
    arr = b.data([42], read_only=True)
    base, v = b.regs("base", "v")
    b.li(base, arr)
    with b.loop("i", 0, repeats):
        b.ld(v, base)
    return b.build()


def varying_load_program(repeats):
    b = ProgramBuilder()
    cell = b.reserve(1)
    base, v = b.regs("base", "v")
    b.li(base, cell)
    with b.loop("i", 0, repeats) as i:
        b.st(i, base)
        b.ld(v, base)
    return b.build()


def test_constant_loads_have_high_locality():
    tracker = run_with_tracker(constant_load_program(10))
    (pc,) = tracker.observed_loads()
    assert tracker.locality(pc) == pytest.approx(9 / 10)


def test_varying_loads_have_zero_locality():
    tracker = run_with_tracker(varying_load_program(10), depth=1)
    (pc,) = tracker.observed_loads()
    assert tracker.locality(pc) == 0.0


def test_history_depth_widens_matches():
    b = ProgramBuilder()
    arr = b.data([1, 2], read_only=True)
    base, v, addr = b.regs("base", "v", "addr")
    b.li(base, arr)
    with b.loop("i", 0, 8) as i:
        from repro.isa import Opcode
        b.op(Opcode.AND, addr, i, 1)
        b.add(addr, addr, base)
        b.ld(v, addr)  # alternating 1,2,1,2...
    depth1 = run_with_tracker(b.build(), depth=1)
    (pc,) = depth1.observed_loads()
    assert depth1.locality(pc) == 0.0


def test_weighted_histogram_bins():
    tracker = run_with_tracker(constant_load_program(10))
    (pc,) = tracker.observed_loads()
    histogram = tracker.weighted_histogram([pc], bins=10)
    assert abs(sum(histogram) - 1.0) < 1e-12
    assert histogram[9] == 1.0  # 90% locality lands in the top bin


def test_invalid_depth_rejected():
    with pytest.raises(ValueError):
        ValueLocalityTracker(history_depth=0)


def test_empty_histogram():
    tracker = ValueLocalityTracker()
    assert tracker.weighted_histogram([], bins=5) == [0.0] * 5
