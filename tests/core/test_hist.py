"""History table semantics, including LRU eviction under pressure."""

import pytest

from repro.core import HistoryTable


def test_record_and_read():
    hist = HistoryTable(capacity=4)
    hist.record(0, 1, (10, 20))
    assert hist.has(0, 1)
    assert hist.read(0, 1, 0) == 10
    assert hist.read(0, 1, 1) == 20


def test_rerecord_updates_in_place():
    hist = HistoryTable(capacity=1)
    hist.record(0, 1, (10,))
    evicted = hist.record(0, 1, (11,))
    assert evicted is None
    assert hist.read(0, 1, 0) == 11
    assert hist.occupancy == 1


def test_lru_eviction_on_overflow():
    hist = HistoryTable(capacity=2)
    hist.record(0, 0, (1,))
    hist.record(0, 1, (2,))
    evicted = hist.record(0, 2, (3,))
    assert evicted == (0, 0)
    assert not hist.has(0, 0)
    assert hist.has(0, 1) and hist.has(0, 2)
    assert hist.stats.evictions == 1


def test_read_promotes_lru_order():
    hist = HistoryTable(capacity=2)
    hist.record(0, 0, (1,))
    hist.record(0, 1, (2,))
    hist.read(0, 0, 0)  # promote (0,0)
    evicted = hist.record(0, 2, (3,))
    assert evicted == (0, 1)


def test_missing_read_raises_and_counts():
    hist = HistoryTable(capacity=2)
    with pytest.raises(KeyError):
        hist.read(5, 5, 0)
    assert hist.stats.missing_reads == 1


def test_high_water():
    hist = HistoryTable(capacity=8)
    for leaf in range(5):
        hist.record(0, leaf, (leaf,))
    assert hist.stats.high_water == 5


def test_capacity_validation():
    with pytest.raises(ValueError):
        HistoryTable(capacity=0)


def test_strict_mode_raises_on_overflow():
    import pytest as _pytest

    from repro.errors import HistOverflow

    hist = HistoryTable(capacity=2, strict=True)
    hist.record(0, 0, (1,))
    hist.record(0, 1, (2,))
    with _pytest.raises(HistOverflow):
        hist.record(0, 2, (3,))
    # Updating an existing key never overflows.
    hist.record(0, 1, (9,))
    assert hist.read(0, 1, 0) == 9
