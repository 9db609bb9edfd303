"""Run-statistics bookkeeping."""

from repro.isa import Category
from repro.machine import Level, RunStats


def test_count_instruction():
    stats = RunStats()
    stats.count_instruction(Category.INT_ALU)
    stats.count_instruction(Category.INT_ALU)
    stats.count_instruction(Category.LOAD)
    assert stats.dynamic_instructions == 3
    assert stats.by_category[Category.INT_ALU] == 2


def test_swapped_load_profile():
    stats = RunStats()
    stats.count_swapped_load(Level.L1)
    stats.count_swapped_load(Level.MEM)
    stats.count_swapped_load(Level.MEM)
    profile = stats.swapped_load_profile()
    assert profile[Level.L1] == 1 / 3
    assert profile[Level.MEM] == 2 / 3
    assert stats.recomputations_fired == 3


def test_empty_profile_is_zero():
    profile = RunStats().swapped_load_profile()
    assert all(value == 0.0 for value in profile.values())
