"""Three-level data memory hierarchy: L1-D, L2, main memory.

Implements the walk/fill/write-back protocol over two
:class:`~repro.machine.cache.Cache` levels plus DRAM, and prices each
access with the configured per-level energy/latency (paper Table 3).
The hierarchy also exposes the two inspection primitives the amnesic
scheduler needs:

* :meth:`probe` — a tag lookup that does **not** fill or disturb LRU
  state, used by the FLC/LLC runtime policies (paper section 3.3.1);
* :meth:`residence` — a side-effect-free peek used by the oracular
  policies, which "can predict with 100% accuracy where the load of v
  will be serviced" (paper section 5.1).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from .cache import Cache
from .config import Level, MachineConfig


@dataclasses.dataclass(frozen=True)
class Access:
    """Outcome of one data access: servicing level, energy, latency."""

    level: Level
    energy_nj: float
    latency_ns: float
    is_store: bool = False


@dataclasses.dataclass
class HierarchyStats:
    """Aggregate counters over the whole hierarchy."""

    loads_by_level: Dict[Level, int] = dataclasses.field(
        default_factory=lambda: {level: 0 for level in Level}
    )
    stores_by_level: Dict[Level, int] = dataclasses.field(
        default_factory=lambda: {level: 0 for level in Level}
    )
    writeback_energy_nj: float = 0.0

    @property
    def total_loads(self) -> int:
        return sum(self.loads_by_level.values())

    def load_fractions(self) -> Dict[Level, float]:
        """Fraction of loads serviced per level (the paper's PrLi)."""
        total = self.total_loads
        if not total:
            return {level: 0.0 for level in Level}
        return {level: count / total for level, count in self.loads_by_level.items()}


class MemoryHierarchy:
    """L1-D + L2 + DRAM with LRU write-back caches."""

    def __init__(self, config: MachineConfig):
        self.config = config
        self.l1 = Cache(config.l1_geometry, name="L1-D")
        self.l2 = Cache(config.l2_geometry, name="L2")
        self.stats = HierarchyStats()
        # What the miss walk reads, per cache: its sets, line shift, set
        # count, associativity and stats (none is ever replaced).
        l1, l2 = self.l1, self.l2
        self._walk = (
            l1._sets, l1._line_shift, l1._nsets, l1.geometry.associativity, l1.stats,
            l2._sets, l2._line_shift, l2._nsets, l2.geometry.associativity, l2.stats,
        )
        self._l2_write_nj = config.l2_params.write_energy_nj
        self._mem_write_nj = config.mem_params.write_energy_nj

    # ------------------------------------------------------------------
    # The classic access path.
    # ------------------------------------------------------------------
    def load(self, address: int) -> Access:
        """Perform a load: walk, fill on the way back, price the access."""
        level = self._walk_and_fill(address, dirty=False)
        self.stats.loads_by_level[level] += 1
        return Access(
            level=level,
            energy_nj=self.config.load_energy_nj(level),
            latency_ns=self.config.load_latency_ns(level),
        )

    def store(self, address: int) -> Access:
        """Perform a store (write-allocate, write-back)."""
        level = self._walk_and_fill(address, dirty=True)
        self.stats.stores_by_level[level] += 1
        return Access(
            level=level,
            energy_nj=self.config.store_energy_nj(level),
            latency_ns=self.config.load_latency_ns(level),
            is_store=True,
        )

    def _walk_and_fill(self, address: int, dirty: bool) -> Level:
        if self.l1.lookup(address):
            if dirty:
                self.l1.mark_dirty(address)
            return Level.L1
        return self._service_miss(address, dirty)

    def _service_miss(self, address: int, dirty: bool) -> Level:
        """Continue the walk below an L1 miss (already counted by the caller).

        One call does what ``Cache.lookup`` and ``Cache.fill`` compose
        to, in their order: the L2 lookup (a hit moves the line to the
        MRU end; a miss allocates it, writing a dirty victim back to
        DRAM), then the L1 allocation, whose dirty victim is written
        back into L2 (allocating there if needed).  The L1 line is
        absent, since the caller's lookup just missed.  Alternative
        execution backends that inline the L1 hit check call this same
        walk, so hit/miss, eviction and write-back accounting cannot
        diverge from the classic path.
        """
        sets1, shift1, nsets1, ways1, stats1, sets2, shift2, nsets2, ways2, stats2 = (
            self._walk
        )
        stats = self.stats
        line = address >> shift2
        lines = sets2[line % nsets2]
        if line in lines:
            stats2.hits += 1
            lines.move_to_end(line)
            level = Level.L2
        else:
            stats2.misses += 1
            if len(lines) >= ways2:
                stats2.evictions += 1
                if lines.popitem(last=False)[1]:
                    stats2.writebacks += 1
                    stats.writeback_energy_nj += self._mem_write_nj
            lines[line] = False
            level = Level.MEM
        line = address >> shift1
        lines = sets1[line % nsets1]
        if len(lines) >= ways1:
            stats1.evictions += 1
            victim, victim_dirty = lines.popitem(last=False)
            if victim_dirty:
                stats1.writebacks += 1
                # L1 and L2 lines may differ in size: map the victim's
                # first word through L2's shift.
                victim = (victim << shift1) >> shift2
                victims = sets2[victim % nsets2]
                evicted_dirty = False
                if victim in victims:
                    victims[victim] = True
                    victims.move_to_end(victim)
                else:
                    if len(victims) >= ways2:
                        stats2.evictions += 1
                        evicted_dirty = victims.popitem(last=False)[1]
                        if evicted_dirty:
                            stats2.writebacks += 1
                    victims[victim] = True
                stats.writeback_energy_nj += self._l2_write_nj
                if evicted_dirty:
                    stats.writeback_energy_nj += self._mem_write_nj
        lines[line] = dirty
        return level

    # ------------------------------------------------------------------
    # Amnesic inspection primitives.
    # ------------------------------------------------------------------
    def probe(self, address: int, through: Level) -> Optional[Level]:
        """Tag-probe the hierarchy down to *through* without filling.

        Returns the level where the line was found, or ``None`` if it is
        absent from every probed cache.  FLC probes ``through=Level.L1``;
        LLC probes ``through=Level.L2``.
        """
        if self.l1.probe(address):
            return Level.L1
        if through is Level.L1:
            return None
        if self.l2.probe(address):
            return Level.L2
        return None

    def probe_cost(self, found: Optional[Level], through: Level) -> Access:
        """Energy/latency of a probe that stopped at *found* (or missed).

        A probe that hits in L1 pays one L1 lookup; probing through L2
        pays the L1 lookup plus the L2 lookup — this asymmetry is "the
        main delimiter for LLC" in the paper's section 5.1 comparison.
        """
        energy = self.config.l1_params.read_energy_nj
        latency = self.config.l1_params.latency_ns
        probed_l2 = through is Level.L2 and found is not Level.L1
        if probed_l2:
            energy += self.config.l2_params.read_energy_nj
            latency += self.config.l2_params.latency_ns
        return Access(level=found or Level.MEM, energy_nj=energy, latency_ns=latency)

    def observe(self) -> Dict[str, float]:
        """Flat per-level snapshot for the telemetry timeline sampler."""
        snapshot: Dict[str, float] = {}
        for cache in (self.l1, self.l2):
            prefix = cache.name.lower().replace("-d", "")
            for key, value in cache.observe().items():
                snapshot[f"{prefix}.{key}"] = value
        for level, count in self.stats.loads_by_level.items():
            snapshot[f"loads.{level.value}"] = count
        return snapshot

    def residence(self, address: int) -> Level:
        """Where a load of *address* would be serviced right now (oracle)."""
        if self.l1.contains(address):
            return Level.L1
        if self.l2.contains(address):
            return Level.L2
        return Level.MEM
