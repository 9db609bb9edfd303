"""Instruction buffer LRU behaviour."""

import pytest

from repro.core import InstructionBuffer


def test_fetch_miss_then_hit():
    ibuff = InstructionBuffer(capacity=4)
    assert not ibuff.fetch(100)
    assert ibuff.fetch(100)
    assert ibuff.stats.hits == 1
    assert ibuff.stats.misses == 1


def test_lru_eviction():
    ibuff = InstructionBuffer(capacity=2)
    ibuff.fetch(1)
    ibuff.fetch(2)
    ibuff.fetch(1)  # promote 1
    ibuff.fetch(3)  # evicts 2
    assert ibuff.fetch(1)
    assert not ibuff.fetch(2)
    assert ibuff.stats.evictions >= 1


def test_hit_rate():
    ibuff = InstructionBuffer(capacity=8)
    for _ in range(3):
        ibuff.fetch(5)
    stats = ibuff.stats
    assert stats.hits / (stats.hits + stats.misses) == pytest.approx(2 / 3)


def test_capacity_validation():
    with pytest.raises(ValueError):
        InstructionBuffer(capacity=0)


def test_high_water():
    ibuff = InstructionBuffer(capacity=4)
    for pc in range(3):
        ibuff.fetch(pc)
    assert ibuff.stats.high_water == 3
