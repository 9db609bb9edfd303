"""The instruction buffer (IBuff) caching recomputing instructions.

Paper section 3.2: IBuff is "an optional structure to help reduce the
pressure on instruction cache under recomputation"; each entry holds one
recomputing instruction and the fetch logic fills it like an
instruction cache (modelled after L1-I, section 4).

Since the reproduction's energy model does not charge per-fetch energy
on the classic path, IBuff's role here is to quantify the *pressure*
recomputation would put on instruction supply: hit/miss statistics by
slice pc feed the storage-sizing analysis (section 5.4: "less than 50
entries for SFile or IBuff can cover most of the RSlices").
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Dict, List

#: Default IBuff capacity in instructions.
DEFAULT_IBUFF_CAPACITY = 64


@dataclasses.dataclass
class IBuffStats:
    """Hit/miss counters for the instruction buffer."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    high_water: int = 0


class InstructionBuffer:
    """LRU buffer over slice-instruction pcs."""

    def __init__(self, capacity: int = DEFAULT_IBUFF_CAPACITY):
        if capacity < 1:
            raise ValueError("IBuff capacity must be positive")
        self.capacity = capacity
        self.stats = IBuffStats()
        self._entries: "OrderedDict[int, None]" = OrderedDict()

    def fetch(self, pc: int) -> bool:
        """Fetch the slice instruction at *pc*; returns hit/miss."""
        if pc in self._entries:
            self.stats.hits += 1
            self._entries.move_to_end(pc)
            return True
        self.stats.misses += 1
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self._entries[pc] = None
        self.stats.high_water = max(self.stats.high_water, len(self._entries))
        return False

    def entries(self) -> List[int]:
        """Buffered pcs, least recently used first (no LRU effect)."""
        return list(self._entries)

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    def observe(self) -> Dict[str, float]:
        """Flat snapshot for the telemetry timeline sampler."""
        stats = self.stats
        return {
            "occupancy": self.occupancy,
            "high_water": stats.high_water,
            "hits": stats.hits,
            "misses": stats.misses,
            "evictions": stats.evictions,
        }
