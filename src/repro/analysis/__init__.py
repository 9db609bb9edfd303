"""Evaluation analyses: gains, breakdowns, profiles, histograms, break-even."""

from .breakdown import BreakdownRow, breakdown_row, breakdown_table, render_breakdown
from .breakeven import (
    BreakevenResult,
    edp_gain_at_factor,
    find_breakeven,
)
from .gains import (
    METRIC_EDP,
    METRIC_ENERGY,
    METRIC_TIME,
    GainMatrix,
)
from .histograms import (
    LocalityHistogram,
    NonRecomputableShare,
    SliceLengthHistogram,
    locality_histogram,
    nonrecomputable_share,
    render_length_histogram,
    render_locality_histogram,
    render_nc_table,
    slice_length_histogram,
)
from .storage import (
    StorageBounds,
    StorageUtilisation,
    observed_utilisation,
    storage_bounds,
)
from .sweeps import (
    SweepPoint,
    cache_capacity_sweep,
    memory_energy_sweep,
    scaled_cache_config,
    scaled_memory_config,
)
from .memory_profile import (
    MemoryProfileRow,
    memory_profile_table,
    render_memory_profile,
    swapped_load_profile,
)
from .tables import render_histogram, render_table

__all__ = [
    "BreakdownRow",
    "BreakevenResult",
    "GainMatrix",
    "LocalityHistogram",
    "METRIC_EDP",
    "METRIC_ENERGY",
    "METRIC_TIME",
    "MemoryProfileRow",
    "NonRecomputableShare",
    "SliceLengthHistogram",
    "StorageBounds",
    "StorageUtilisation",
    "SweepPoint",
    "observed_utilisation",
    "storage_bounds",
    "cache_capacity_sweep",
    "memory_energy_sweep",
    "scaled_cache_config",
    "scaled_memory_config",
    "breakdown_row",
    "breakdown_table",
    "edp_gain_at_factor",
    "find_breakeven",
    "locality_histogram",
    "memory_profile_table",
    "nonrecomputable_share",
    "render_breakdown",
    "render_histogram",
    "render_length_histogram",
    "render_locality_histogram",
    "render_memory_profile",
    "render_nc_table",
    "render_table",
    "slice_length_histogram",
    "swapped_load_profile",
]
