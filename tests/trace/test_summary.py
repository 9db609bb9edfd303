"""Trace summaries and stack-distance reuse profiles."""

import pytest

from repro.energy import EPITable, EnergyModel
from repro.isa import ProgramBuilder
from repro.machine import CPU
from repro.trace import DependenceTracker
from repro.trace.summary import (
    COLD_BUCKET,
    ReuseProfile,
    reuse_profile,
    summarise_trace,
)

from ..conftest import build_spill_kernel, tiny_config


def test_repeated_access_has_zero_distance():
    profile = reuse_profile([0, 0, 0, 0], line_words=4)
    assert profile.histogram[COLD_BUCKET] == 1
    assert profile.histogram[4] == 3  # distance 0 -> first bucket
    assert profile.unique_lines == 1


def test_same_line_counts_as_reuse():
    # Words 0..3 share a 4-word line.
    profile = reuse_profile([0, 1, 2, 3], line_words=4)
    assert profile.histogram[COLD_BUCKET] == 1
    assert profile.histogram[4] == 3


def test_streaming_is_all_cold():
    profile = reuse_profile(list(range(0, 400, 4)), line_words=4)
    assert profile.histogram[COLD_BUCKET] == profile.accesses
    assert profile.unique_lines == profile.accesses


def test_cyclic_pattern_distance_equals_footprint():
    """Cycling through N lines gives stack distance N-1 on every reuse."""
    lines = 10
    stream = [line * 4 for line in range(lines)] * 3
    profile = reuse_profile(stream, line_words=4)
    # Reuses (two extra passes) all land in the bucket covering 9.
    assert profile.histogram[16] == 2 * lines
    assert profile.histogram[COLD_BUCKET] == lines


def test_fraction_within_is_lru_hit_rate():
    """fraction_within(N) == hit rate of an N-line LRU cache."""
    lines = 10
    stream = [line * 4 for line in range(lines)] * 3
    profile = reuse_profile(stream, line_words=4)
    assert profile.fraction_within(16) == pytest.approx(20 / 30)
    assert profile.fraction_within(8) == 0.0


def test_matches_reference_stack_distance():
    """Fenwick-tree distances agree with a naive reference computation."""
    import random

    rng = random.Random(7)
    stream = [rng.randrange(0, 32) * 4 for _ in range(300)]
    profile = reuse_profile(stream, line_words=4)

    # Naive reference: LRU stack positions.
    stack = []
    reference = {"cold": 0}
    from repro.trace.summary import _bucket

    for address in stream:
        line = address // 4
        if line in stack:
            distance = stack.index(line)
            reference[_bucket(distance)] = reference.get(_bucket(distance), 0) + 1
            stack.remove(line)
        else:
            reference["cold"] += 1
        stack.insert(0, line)
    assert profile.histogram[COLD_BUCKET] == reference["cold"]
    for bucket, count in reference.items():
        if bucket != "cold":
            assert profile.histogram[bucket] == count


def test_summarise_trace_on_spill_kernel():
    program = build_spill_kernel(iterations=8, chain=3, gap=6)
    tracker = DependenceTracker()
    CPU(program, EnergyModel(epi=EPITable.default(), config=tiny_config()),
        tracer=tracker).run()
    summary = summarise_trace(tracker)
    assert summary.dynamic_instructions == len(tracker.records)
    assert summary.load_count > 0
    assert summary.store_count > 0
    assert summary.working_set_words > 0
    assert summary.working_set_lines <= summary.working_set_words
    assert abs(sum(summary.mix.values()) - 1.0) < 1e-9
    assert summary.load_reuse.accesses == summary.load_count


def test_summary_without_reuse():
    tracker = DependenceTracker()
    summary = summarise_trace(tracker, with_reuse=False)
    assert summary.load_reuse is None
    assert summary.dynamic_instructions == 0
