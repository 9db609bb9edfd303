"""Storage-complexity bounds (paper section 3.4).

The paper derives loose upper bounds for each amnesic structure from the
slices baked into the binary:

* ``SFile``: at most ``max#inst_per_RSlice x max#rename`` entries, with
  ``max#rename = max#src + max#dest`` (3 for a 2-source RISC; our FMA
  raises it to 4);
* ``Hist``: at most ``#RSlice x max#leaf_per_RSlice`` entries, each
  holding at most ``max#src`` values;
* ``IBuff``: at most ``max#inst_per_RSlice`` entries.

:func:`storage_bounds` evaluates those formulas over a compiled binary;
tests and the sizing benchmark check that observed high-water marks
respect them (and by how much the bounds over-provision, the paper's
section 5.4 observation).
"""

from __future__ import annotations

import dataclasses

from ..compiler.annotate import AmnesicBinary
from ..isa.opcodes import MAX_RENAME_REQUESTS


@dataclasses.dataclass(frozen=True)
class StorageBounds:
    """Paper section 3.4 upper bounds for one amnesic binary."""

    slice_count: int
    max_instructions_per_slice: int
    max_hist_leaves_per_slice: int
    #: SFile bound: max#inst_per_RSlice x max#rename.
    sfile_entries: int
    #: Hist bound: #RSlice x max#leaf_per_RSlice.
    hist_entries: int
    #: IBuff bound: max#inst_per_RSlice.
    ibuff_entries: int


def storage_bounds(binary: AmnesicBinary) -> StorageBounds:
    """Evaluate the section 3.4 formulas over *binary*."""
    infos = list(binary.slices.values())
    max_instructions = max((info.length for info in infos), default=0)
    max_hist_leaves = max((len(info.hist_leaf_ids) for info in infos), default=0)
    return StorageBounds(
        slice_count=len(infos),
        max_instructions_per_slice=max_instructions,
        max_hist_leaves_per_slice=max_hist_leaves,
        sfile_entries=max_instructions * MAX_RENAME_REQUESTS,
        hist_entries=len(infos) * max_hist_leaves,
        ibuff_entries=max_instructions,
    )


@dataclasses.dataclass(frozen=True)
class StorageUtilisation:
    """Observed demand against the paper's bounds."""

    bounds: StorageBounds
    sfile_high_water: int
    hist_high_water: int
    ibuff_high_water: int


def observed_utilisation(binary: AmnesicBinary, amnesic_cpu) -> StorageUtilisation:
    """Pair the bounds with an executed CPU's high-water marks."""
    return StorageUtilisation(
        bounds=storage_bounds(binary),
        sfile_high_water=amnesic_cpu.sfile.stats.high_water,
        hist_high_water=amnesic_cpu.hist.stats.high_water,
        ibuff_high_water=amnesic_cpu.ibuff.stats.high_water,
    )
