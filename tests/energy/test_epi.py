"""EPI table calibration and scaling."""

import pytest

from repro.energy import MEAN_NONMEM_EPI_NJ, EPITable
from repro.isa import Category


def test_default_table_covers_all_nonmemory_categories():
    table = EPITable.default()
    for category in Category:
        if category.is_compute or category in (
            Category.BRANCH, Category.JUMP, Category.NOP, Category.HALT,
        ):
            assert table.epi(category) >= 0


def test_mean_nonmem_matches_paper_value():
    """The calibration anchor: mean non-mem EPI = 0.45 nJ (section 5.5)."""
    table = EPITable.default()
    assert abs(table.mean_nonmem() - MEAN_NONMEM_EPI_NJ) < 0.07


def test_weighted_mean():
    table = EPITable.default()
    weights = {Category.INT_ALU: 1.0}
    assert table.mean_nonmem(weights) == table.epi(Category.INT_ALU)


def test_scaled_nonmem_scales_compute_only():
    table = EPITable.default()
    scaled = table.scaled_nonmem(2.0)
    assert scaled.epi(Category.INT_ALU) == 2 * table.epi(Category.INT_ALU)
    assert scaled.epi(Category.FP_FMA) == 2 * table.epi(Category.FP_FMA)
    assert scaled.epi(Category.BRANCH) == table.epi(Category.BRANCH)


def test_scaled_rejects_negative():
    with pytest.raises(ValueError):
        EPITable.default().scaled_nonmem(-1)


def test_memory_categories_have_no_epi():
    with pytest.raises(KeyError):
        EPITable.default().epi(Category.LOAD)


def test_ordering_div_dearer_than_add():
    table = EPITable.default()
    assert table.epi(Category.INT_DIV) > table.epi(Category.INT_MUL)
    assert table.epi(Category.INT_MUL) > table.epi(Category.INT_ALU)
    assert table.epi(Category.FP_DIV) > table.epi(Category.FP_MUL)
