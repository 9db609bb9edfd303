"""Run-statistics bookkeeping."""

import dataclasses
from collections import Counter

import pytest

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


def test_merge_accumulates_everything():
    a = RunStats()
    a.count_instruction(Category.INT_ALU)
    a.loads_performed = 3
    a.recomputation_aborts = 1
    a.count_swapped_load(Level.L2)
    b = RunStats()
    b.count_instruction(Category.FP_MUL)
    b.loads_performed = 2
    b.hist_reads = 7
    a.merge(b)
    assert a.dynamic_instructions == 2
    assert a.loads_performed == 5
    assert a.hist_reads == 7
    assert a.recomputation_aborts == 1
    assert a.swapped_load_levels[Level.L2] == 1


def _fully_populated_stats() -> RunStats:
    """A RunStats with every field (discovered via dataclasses.fields)
    holding a non-default value, so a field silently dropped by merge
    is guaranteed to show up as an unchanged counter."""
    stats = RunStats()
    for field in dataclasses.fields(RunStats):
        value = getattr(stats, field.name)
        if isinstance(value, Counter):
            value[Category.INT_ALU if field.name == "by_category" else Level.L2] = 3
        elif isinstance(value, int):
            setattr(stats, field.name, 3)
        else:  # a new field type must be taught to this test AND to merge
            pytest.fail(
                f"RunStats gained field {field.name!r} of unmergeable type "
                f"{type(value).__name__}; update merge() and this test"
            )
    return stats


def test_merge_cannot_silently_drop_a_field():
    """Every field doubles after self-merge; a missed one stays at 3.

    This is the regression guard for the old hand-maintained merge list:
    it enumerates fields via dataclasses.fields, so a counter added to
    RunStats later is checked automatically with no edit here.
    """
    stats = _fully_populated_stats()
    stats.merge(_fully_populated_stats())
    for field in dataclasses.fields(RunStats):
        value = getattr(stats, field.name)
        if isinstance(value, Counter):
            assert sum(value.values()) == 6, f"field {field.name} not merged"
        else:
            assert value == 6, f"field {field.name} not merged"


def test_merge_rejects_unmergeable_field_types():
    stats = RunStats()
    stats.loads_performed = "not a number"  # simulate a bad future field
    with pytest.raises(TypeError):
        stats.merge(RunStats())
