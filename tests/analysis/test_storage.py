"""Paper section 3.4 storage bounds."""

import pytest

from repro.analysis.storage import (
    observed_utilisation,
    storage_bounds,
)
from repro.compiler import compile_amnesic
from repro.core import AmnesicCPU, make_policy
from repro.energy import EPITable, EnergyModel
from repro.isa import MAX_RENAME_REQUESTS

from ..conftest import build_spill_kernel, tiny_config


def make_model():
    return EnergyModel(epi=EPITable.default(), config=tiny_config())


@pytest.fixture(scope="module")
def compiled():
    model = make_model()
    program = build_spill_kernel(iterations=12, chain=5, gap=6)
    compilation = compile_amnesic(program, model)
    cpu = AmnesicCPU(compilation.binary, model, make_policy("Compiler"))
    cpu.run()
    return compilation, cpu


def test_bounds_follow_the_paper_formulas(compiled):
    compilation, _ = compiled
    bounds = storage_bounds(compilation.binary)
    assert bounds.slice_count == len(compilation.binary.slices)
    longest = max(info.length for info in compilation.binary.slices.values())
    assert bounds.max_instructions_per_slice == longest
    assert bounds.sfile_entries == longest * MAX_RENAME_REQUESTS
    assert bounds.ibuff_entries == longest
    max_leaves = max(
        len(info.hist_leaf_ids) for info in compilation.binary.slices.values()
    )
    assert bounds.hist_entries == bounds.slice_count * max_leaves


def test_observed_demand_within_bounds(compiled):
    """Section 5.4: practical demand sits far under the loose bounds."""
    compilation, cpu = compiled
    utilisation = observed_utilisation(compilation.binary, cpu)
    assert utilisation.sfile_high_water <= utilisation.bounds.sfile_entries
    assert utilisation.hist_high_water <= max(utilisation.bounds.hist_entries, 1)


def test_empty_binary_bounds():
    from repro.compiler.annotate import AmnesicBinary
    from repro.isa import Program

    bounds = storage_bounds(AmnesicBinary(program=Program(), slices={}))
    assert bounds.slice_count == 0
    assert bounds.sfile_entries == 0
