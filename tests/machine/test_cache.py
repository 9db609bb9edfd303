"""Set-associative LRU cache model, including a reference-model property."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import Cache, CacheGeometry, EvictedLine


def small_cache(lines=4, ways=2, line_words=4):
    return Cache(CacheGeometry(total_lines=lines, associativity=ways,
                               line_words=line_words))


def test_geometry_validation():
    with pytest.raises(ValueError):
        CacheGeometry(total_lines=3, associativity=2)
    with pytest.raises(ValueError):
        CacheGeometry(total_lines=4, associativity=2, line_words=3)
    with pytest.raises(ValueError):
        CacheGeometry(total_lines=0, associativity=1)


def test_cache_guards_against_unvalidated_geometry():
    """Even a geometry smuggled past __post_init__ cannot corrupt mapping."""
    geometry = CacheGeometry(total_lines=4, associativity=2, line_words=4)
    object.__setattr__(geometry, "line_words", 3)  # bypass validation
    with pytest.raises(ValueError, match="power of two.*got 3"):
        Cache(geometry)


@pytest.mark.parametrize("line_words", [3, 5, 6, 7, 12, 100])
def test_non_power_of_two_line_words_rejected(line_words):
    with pytest.raises(ValueError, match="power of two"):
        CacheGeometry(total_lines=4, associativity=2, line_words=line_words)


@pytest.mark.parametrize("line_words", [0, -1, -8])
def test_non_positive_line_words_rejected(line_words):
    with pytest.raises(ValueError, match="positive"):
        CacheGeometry(total_lines=4, associativity=2, line_words=line_words)


@pytest.mark.parametrize("smuggled", [0, 6])
def test_cache_guard_rejects_smuggled_degenerate_line_words(smuggled):
    """Size 0 and non-power sizes fail the shift guard, not map wrongly.

    ``line_words=0`` computes a negative shift, which must surface as a
    loud ValueError rather than silently mis-mapping every address.
    """
    geometry = CacheGeometry(total_lines=4, associativity=2, line_words=4)
    object.__setattr__(geometry, "line_words", smuggled)
    with pytest.raises(ValueError):
        Cache(geometry)


def test_single_word_lines_are_valid_and_map_identity():
    """line_words=1 is the power-of-two floor: every word is its own line."""
    cache = small_cache(lines=4, ways=2, line_words=1)
    for address in range(8):
        assert cache.line_address(address) == address
    cache.fill(0)
    assert cache.lookup(0)
    assert not cache.lookup(1)  # the neighbouring word is a separate line


def test_single_line_cache_degenerates_to_one_slot():
    geometry = CacheGeometry(total_lines=1, associativity=1, line_words=4)
    assert geometry.sets == 1
    cache = Cache(geometry)
    cache.fill(0)
    assert cache.contains(0)
    evicted = cache.fill(4)  # next line displaces the only slot
    assert evicted is not None and evicted.line_address == 0
    assert not cache.contains(0)


def test_fully_associative_geometry_has_one_set():
    geometry = CacheGeometry(total_lines=4, associativity=4, line_words=2)
    assert geometry.sets == 1
    cache = Cache(geometry)
    for line in range(4):
        cache.fill(line * 2)
    assert all(cache.contains(line * 2) for line in range(4))
    evicted = cache.fill(4 * 2)
    assert evicted.line_address == 0  # true LRU across the single set


def test_line_mapping():
    cache = small_cache(line_words=4)
    assert cache.line_address(0) == cache.line_address(3)
    assert cache.line_address(3) != cache.line_address(4)


def test_miss_then_hit_after_fill():
    cache = small_cache()
    assert not cache.lookup(0)
    cache.fill(0)
    assert cache.lookup(0)
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1


def test_lru_eviction_order():
    cache = small_cache(lines=4, ways=2)  # 2 sets
    # Addresses mapping to set 0: line addresses 0, 2, 4 (even).
    cache.fill(0 * 4)
    cache.fill(2 * 4)
    cache.lookup(0 * 4)  # promote line 0 to MRU
    evicted = cache.fill(4 * 4)
    assert evicted is not None
    assert evicted.line_address == 2  # line 2 was LRU


def test_dirty_writeback_counted():
    cache = small_cache(lines=4, ways=2)
    cache.fill(0, dirty=True)
    cache.fill(2 * 4)
    evicted = cache.fill(4 * 4)
    assert evicted.dirty
    assert cache.stats.writebacks == 1


def test_probe_has_no_lru_side_effect():
    cache = small_cache(lines=4, ways=2)
    cache.fill(0 * 4)
    cache.fill(2 * 4)
    cache.probe(0 * 4)  # would promote under lookup(); must not here
    evicted = cache.fill(4 * 4)
    assert evicted.line_address == 0  # still LRU despite the probe
    assert cache.stats.probes == 1
    assert cache.stats.hits == 0


def test_contains_is_pure():
    cache = small_cache()
    cache.fill(0)
    before = cache.stats.probes
    assert cache.contains(0)
    assert cache.stats.probes == before


def test_mark_dirty():
    cache = small_cache()
    cache.fill(0)
    cache.mark_dirty(0)
    assert cache.resident_lines()[cache.line_address(0)] is True


def test_fill_existing_line_keeps_dirty_bit():
    cache = small_cache()
    cache.fill(0, dirty=True)
    cache.fill(0, dirty=False)
    assert cache.resident_lines()[cache.line_address(0)] is True


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 63), st.booleans()), max_size=200))
def test_matches_reference_lru_model(accesses):
    """The cache must agree with a straightforward reference LRU model."""
    geometry = CacheGeometry(total_lines=8, associativity=2, line_words=4)
    cache = Cache(geometry)
    reference = {s: [] for s in range(geometry.sets)}  # set -> [line,...] LRU order

    for address, dirty in accesses:
        line = address >> 2
        set_index = line % geometry.sets
        expected_hit = line in reference[set_index]
        assert cache.lookup(address) == expected_hit
        cache.fill(address, dirty=dirty)
        if expected_hit:
            reference[set_index].remove(line)
        elif len(reference[set_index]) >= geometry.associativity:
            reference[set_index].pop(0)
        reference[set_index].append(line)

    resident = set(cache.resident_lines())
    assert resident == {line for lines in reference.values() for line in lines}


def test_eviction_names_the_victim_line_and_its_dirty_bit():
    cache = small_cache(lines=2, ways=1)  # 2 sets, one way each
    cache.fill(0, dirty=True)
    cache.fill(1 * 4)
    line_address, dirty = cache.fill(2 * 4)  # same set as line 0
    assert (line_address, dirty) == (0, True)
    assert cache.fill(3 * 4) == EvictedLine(line_address=1, dirty=False)
