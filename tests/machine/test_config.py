"""Machine configuration invariants."""

import pytest

from repro.machine import CacheGeometry, Level, default_config, paper_geometry


def test_paper_geometry_matches_table3():
    config = paper_geometry()
    l1, l2 = config.l1_geometry, config.l2_geometry
    assert l1.total_lines * l1.line_words * 8 == 32 * 1024  # 32KB
    assert l2.total_lines * l2.line_words * 8 == 512 * 1024  # 512KB
    assert config.l1_params.read_energy_nj == 0.88
    assert config.l2_params.read_energy_nj == 7.72
    assert config.mem_params.read_energy_nj == 52.14
    assert config.mem_params.write_energy_nj == 62.14
    assert config.frequency_ghz == 1.09


def test_default_config_preserves_energies():
    config = default_config()
    paper = paper_geometry()
    assert config.l1_params == paper.l1_params
    assert config.l2_params == paper.l2_params
    assert config.mem_params == paper.mem_params
    # Scaled geometry keeps the ratio-of-16 between L2 and L1 overall size.
    assert config.l2_geometry.total_lines // config.l1_geometry.total_lines == 8


def test_cumulative_load_energy():
    config = paper_geometry()
    assert config.load_energy_nj(Level.L1) == 0.88
    assert config.load_energy_nj(Level.L2) == 0.88 + 7.72
    assert config.load_energy_nj(Level.MEM) == 0.88 + 7.72 + 52.14


def test_load_latency_per_level():
    config = paper_geometry()
    assert config.load_latency_ns(Level.L1) == 3.66
    assert config.load_latency_ns(Level.L2) == 24.77
    assert config.load_latency_ns(Level.MEM) == 100.0


def test_cycle_time():
    assert abs(paper_geometry().cycle_ns - 1 / 1.09) < 1e-12


def test_level_depth_ordering():
    assert Level.L1.depth < Level.L2.depth < Level.MEM.depth


def test_geometry_sets():
    geometry = CacheGeometry(total_lines=16, associativity=4)
    assert geometry.sets == 4


def test_geometry_rejects_nonpositive_fields_with_values():
    with pytest.raises(ValueError, match="total_lines=0"):
        CacheGeometry(total_lines=0, associativity=1)
    with pytest.raises(ValueError, match="associativity=-2"):
        CacheGeometry(total_lines=16, associativity=-2)
    with pytest.raises(ValueError, match="line_words=0"):
        CacheGeometry(total_lines=16, associativity=4, line_words=0)


def test_geometry_rejects_indivisible_associativity_with_values():
    with pytest.raises(ValueError, match=r"total_lines \(10\).*associativity \(4\)"):
        CacheGeometry(total_lines=10, associativity=4)


def test_geometry_rejects_non_power_of_two_line_words():
    """line_words feeds a shift-based line mapping: power of two or bust."""
    with pytest.raises(ValueError, match="power of two.*got 6"):
        CacheGeometry(total_lines=16, associativity=4, line_words=6)
    # Powers of two other than the default 8 are fine.
    assert CacheGeometry(total_lines=16, associativity=4, line_words=16)
