"""The history table (Hist) buffering non-recomputable leaf inputs.

Paper section 3.2: "the amnesic microarchitecture can buffer
non-recomputable input operands for each RSlice leaf in the dedicated
history table Hist.  Each entry of Hist keeps the address (leaf-address)
and non-recomputable input operands of a leaf instruction."

Entries are keyed by ``(slice_id, leaf_id)`` — the reproduction's
spelling of the paper's ``RSlice-ID`` + ``leaf-address`` pair (section
3.5).  The table is capacity-limited with LRU replacement; an evicted
entry simply disappears, and the scheduler detects the missing
checkpoint at the next RCMP and falls back to the plain load — the
paper's "failed REC instructions ... enforce the corresponding RCMP to
skip recomputation".
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple, Union

Value = Union[int, float]

#: Paper section 5.4: "a Hist design of no more than 600 entries can
#: accommodate such demand".
DEFAULT_HIST_CAPACITY = 600

Key = Tuple[int, int]  # (slice_id, leaf_id)


@dataclasses.dataclass
class HistStats:
    """Traffic and pressure counters for the history table."""

    writes: int = 0
    reads: int = 0
    evictions: int = 0
    missing_reads: int = 0
    high_water: int = 0


class HistoryTable:
    """Capacity-limited checkpoint store with LRU replacement."""

    def __init__(self, capacity: int = DEFAULT_HIST_CAPACITY):
        if capacity < 1:
            raise ValueError("Hist capacity must be positive")
        self.capacity = capacity
        self.stats = HistStats()
        self._entries: "OrderedDict[Key, Tuple[Value, ...]]" = OrderedDict()

    # ------------------------------------------------------------------
    # REC side.
    # ------------------------------------------------------------------
    def record(self, slice_id: int, leaf_id: int, values: Tuple[Value, ...]) -> Optional[Key]:
        """Checkpoint *values* for a leaf; returns the evicted key, if any.

        Re-recording an existing key updates it in place.  When the
        table is full, the least recently used entry is evicted to make
        room — its slice will fall back to the plain load until its
        leaf re-executes.
        """
        key = (slice_id, leaf_id)
        self.stats.writes += 1
        evicted: Optional[Key] = None
        if key in self._entries:
            self._entries.move_to_end(key)
        elif len(self._entries) >= self.capacity:
            evicted, _ = self._entries.popitem(last=False)
            self.stats.evictions += 1
        self._entries[key] = tuple(values)
        self.stats.high_water = max(self.stats.high_water, len(self._entries))
        return evicted

    # ------------------------------------------------------------------
    # Recomputation side.
    # ------------------------------------------------------------------
    def has(self, slice_id: int, leaf_id: int) -> bool:
        """True when the leaf's checkpoint is present (no LRU effect)."""
        return (slice_id, leaf_id) in self._entries

    def read(self, slice_id: int, leaf_id: int, slot: int) -> Value:
        """Read one checkpointed operand (promotes the entry in LRU order)."""
        key = (slice_id, leaf_id)
        entry = self._entries.get(key)
        if entry is None:
            self.stats.missing_reads += 1
            raise KeyError(f"no Hist entry for slice {slice_id} leaf {leaf_id}")
        self.stats.reads += 1
        self._entries.move_to_end(key)
        return entry[slot]

    def entries(self) -> List[Tuple[Key, Tuple[Value, ...]]]:
        """Every checkpoint, least recently used first (no LRU effect)."""
        return list(self._entries.items())

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    def observe(self) -> Dict[str, float]:
        """Flat snapshot for the telemetry timeline sampler.

        ``occupancy``/``high_water`` are levels; the rest is cumulative
        traffic.  Polled only at window boundaries.
        """
        stats = self.stats
        return {
            "occupancy": self.occupancy,
            "high_water": stats.high_water,
            "writes": stats.writes,
            "reads": stats.reads,
            "evictions": stats.evictions,
            "missing_reads": stats.missing_reads,
        }
