"""Functional memory semantics."""

import pytest

from repro.errors import MemoryFault
from repro.isa import DataSegment
from repro.machine import Memory


def make_memory():
    data = DataSegment()
    data.place(100, [1, 2.5, 3], read_only=False)
    data.place(200, [7, 8], read_only=True)
    return Memory(data)


def test_read_initial_values():
    memory = make_memory()
    assert memory.read(100) == 1
    assert memory.read(101) == 2.5
    assert memory.read(201) == 8


def test_unmapped_read_faults():
    with pytest.raises(MemoryFault):
        make_memory().read(999)


def test_write_and_read_back():
    memory = make_memory()
    memory.write(100, 42)
    assert memory.read(100) == 42


def test_write_to_read_only_faults():
    memory = make_memory()
    with pytest.raises(MemoryFault):
        memory.write(200, 0)


def test_write_can_extend_mapping():
    memory = make_memory()
    memory.write(500, 9)
    assert memory.read(500) == 9


def test_snapshot_is_a_copy():
    memory = make_memory()
    snapshot = memory.snapshot()
    memory.write(100, 0)
    assert snapshot[100] == 1


def test_read_block():
    assert make_memory().read_block(200, 2) == [7, 8]


def test_len_counts_cells():
    assert len(make_memory()) == 5
