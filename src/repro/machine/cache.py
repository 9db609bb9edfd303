"""Set-associative write-back cache model (tags + LRU + dirty bits).

Caches here are *metadata only*: they answer "would this access hit, and
what gets evicted", which is all the energy/timing model needs.  Values
always come from :class:`repro.machine.memory.Memory`.

The model implements LRU replacement and write-back/write-allocate, the
policies of the paper's simulated L1-D and L2 (Table 3).
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Dict, List, NamedTuple, Optional

from .config import CacheGeometry


@dataclasses.dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    probes: int = 0


class EvictedLine(NamedTuple):
    """Result of an eviction: which line left and whether it was dirty."""

    line_address: int
    dirty: bool


class Cache:
    """One level of set-associative, LRU, write-back cache."""

    def __init__(self, geometry: CacheGeometry, name: str = "cache"):
        self.geometry = geometry
        self.name = name
        self.stats = CacheStats()
        # One OrderedDict per set, mapping line address -> dirty flag.
        # Ordering encodes recency: last item is most recently used.
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(geometry.sets)]
        self._nsets = geometry.sets
        self._line_shift = geometry.line_words.bit_length() - 1
        if 1 << self._line_shift != geometry.line_words:
            # CacheGeometry.__post_init__ rejects this; guard against a
            # geometry constructed around the dataclass (e.g. __new__).
            raise ValueError(
                f"line_words must be a power of two for shift-based line "
                f"mapping, got {geometry.line_words}"
            )

    # ------------------------------------------------------------------
    # Address mapping.
    # ------------------------------------------------------------------
    def line_address(self, address: int) -> int:
        """The line-granular address containing word *address*."""
        return address >> self._line_shift

    def _set_for(self, line_address: int) -> OrderedDict:
        return self._sets[line_address % self._nsets]

    # ------------------------------------------------------------------
    # Operations.
    # ------------------------------------------------------------------
    def lookup(self, address: int) -> bool:
        """Check presence of *address*; counts a hit or miss.

        Does not allocate on miss — use :meth:`fill`.  On hit the line is
        promoted to most-recently-used.
        """
        line = self.line_address(address)
        cache_set = self._set_for(line)
        if line in cache_set:
            self.stats.hits += 1
            cache_set.move_to_end(line)
            return True
        self.stats.misses += 1
        return False

    def probe(self, address: int) -> bool:
        """Presence check without statistics or LRU side effects.

        Used by the amnesic scheduler's FLC/LLC policies: probing is a
        tag lookup that does not change replacement state or hit/miss
        accounting of the classic access stream.
        """
        self.stats.probes += 1
        line = self.line_address(address)
        return line in self._set_for(line)

    def contains(self, address: int) -> bool:
        """Pure presence check with no side effects at all (oracles)."""
        line = self.line_address(address)
        return line in self._set_for(line)

    def fill(self, address: int, dirty: bool = False) -> Optional[EvictedLine]:
        """Bring the line of *address* in, evicting LRU if the set is full.

        ``MemoryHierarchy._service_miss`` inlines this; composed with
        :meth:`lookup`, it is the reference the walk is tested against.
        """
        line = self.line_address(address)
        cache_set = self._set_for(line)
        evicted = None
        if line in cache_set:
            cache_set[line] = cache_set[line] or dirty
            cache_set.move_to_end(line)
            return None
        if len(cache_set) >= self.geometry.associativity:
            victim, victim_dirty = cache_set.popitem(last=False)
            self.stats.evictions += 1
            if victim_dirty:
                self.stats.writebacks += 1
            evicted = EvictedLine(victim, victim_dirty)
        cache_set[line] = dirty
        return evicted

    def mark_dirty(self, address: int) -> None:
        """Mark the (present) line of *address* dirty."""
        line = self.line_address(address)
        cache_set = self._set_for(line)
        if line in cache_set:
            cache_set[line] = True
            cache_set.move_to_end(line)

    # ------------------------------------------------------------------
    # Inspection.
    # ------------------------------------------------------------------
    def resident_lines(self) -> Dict[int, bool]:
        """Map of resident line addresses to dirty flags (tests/analysis)."""
        resident: Dict[int, bool] = {}
        for cache_set in self._sets:
            resident.update(cache_set)
        return resident

    def occupancy(self) -> int:
        """Number of lines currently resident."""
        return sum(len(s) for s in self._sets)

    def observe(self) -> Dict[str, float]:
        """Flat snapshot for the telemetry timeline sampler.

        ``occupancy`` is instantaneous; every other series is cumulative
        (the sampler differences consecutive snapshots into per-window
        rates).  Called only at window boundaries — never on the access
        path — so it costs nothing when telemetry is off.
        """
        stats = self.stats
        return {
            "occupancy": self.occupancy(),
            "hits": stats.hits,
            "misses": stats.misses,
            "evictions": stats.evictions,
            "writebacks": stats.writebacks,
        }

    def __repr__(self) -> str:
        geometry = self.geometry
        return (
            f"Cache({self.name}, {geometry.total_lines} lines, "
            f"{geometry.associativity}-way, {self.occupancy()} resident)"
        )
