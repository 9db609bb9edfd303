"""Machine configuration: cache geometry and per-level energy/latency.

The defaults reproduce the paper's simulated architecture (Table 3):

=================  ======================  ========  =========
Component          Geometry                Energy    Latency
=================  ======================  ========  =========
L1-I (LRU)         32KB, 4-way             0.88 nJ   3.66 ns
L1-D (LRU, WB)     32KB, 8-way             0.88 nJ   3.66 ns
L2 (LRU, WB)       512KB, 8-way            7.72 nJ   24.77 ns
Main memory        --                      52.14 nJ read / 62.14 nJ write, 100 ns
=================  ======================  ========  =========

operating at 1.09 GHz in a 22nm node.  Because our synthetic kernels are
laptop-scale rather than SPEC-scale, the harness uses a *scaled* geometry
(same ratios, smaller capacities) so that working sets produce the same
service-level profiles the paper reports for its benchmarks; the paper
geometry remains available as :func:`paper_geometry`.
"""

from __future__ import annotations

import dataclasses
import enum


class Level(enum.Enum):
    """A level of the data memory hierarchy."""

    L1 = "L1"
    L2 = "L2"
    MEM = "MEM"

    #: Members are singletons and ``Enum`` compares by identity, so the
    #: identity hash agrees with equality and runs at C speed.
    __hash__ = object.__hash__

    @property
    def depth(self) -> int:
        """0 for L1, 1 for L2, 2 for main memory."""
        return _LEVEL_DEPTH[self]


_LEVEL_DEPTH = {Level.L1: 0, Level.L2: 1, Level.MEM: 2}

#: Hierarchy walk order, nearest first.
LEVELS = (Level.L1, Level.L2, Level.MEM)


@dataclasses.dataclass(frozen=True)
class CacheGeometry:
    """Geometry of one cache: capacity in lines, associativity, line size.

    ``line_words`` is the number of 64-bit words per line (8 words = the
    64-byte lines of the paper's configuration).
    """

    total_lines: int
    associativity: int
    line_words: int = 8

    def __post_init__(self) -> None:
        if self.total_lines <= 0 or self.associativity <= 0 or self.line_words <= 0:
            raise ValueError(
                f"cache geometry fields must be positive, got "
                f"total_lines={self.total_lines}, "
                f"associativity={self.associativity}, "
                f"line_words={self.line_words}"
            )
        if self.total_lines % self.associativity:
            raise ValueError(
                f"total_lines ({self.total_lines}) must be a multiple of "
                f"associativity ({self.associativity}) so the sets divide "
                f"evenly"
            )
        if self.line_words & (self.line_words - 1):
            # Cache.line_address maps word -> line with a right shift of
            # log2(line_words); a non-power-of-two would silently map
            # addresses to the wrong line.
            raise ValueError(
                f"line_words must be a power of two (shift-based line "
                f"mapping), got {self.line_words}"
            )

    @property
    def sets(self) -> int:
        return self.total_lines // self.associativity


@dataclasses.dataclass(frozen=True)
class LevelParams:
    """Energy and round-trip latency of one memory level."""

    read_energy_nj: float
    write_energy_nj: float
    latency_ns: float


@dataclasses.dataclass(frozen=True)
class MachineConfig:
    """Complete machine description consumed by the simulator."""

    l1_geometry: CacheGeometry
    l2_geometry: CacheGeometry
    l1_params: LevelParams
    l2_params: LevelParams
    mem_params: LevelParams
    frequency_ghz: float = 1.09

    @property
    def cycle_ns(self) -> float:
        """Duration of one core cycle in nanoseconds."""
        return 1.0 / self.frequency_ghz

    def params(self, level: Level) -> LevelParams:
        """Energy/latency parameters for *level*."""
        if level is Level.L1:
            return self.l1_params
        if level is Level.L2:
            return self.l2_params
        return self.mem_params

    def load_energy_nj(self, level: Level) -> float:
        """Cumulative energy of a load serviced at *level*.

        A load that misses in L1 pays the L1 lookup *and* the L2 access;
        a load serviced by memory pays all three, matching how Sniper +
        McPAT accumulate access energy along the walk.
        """
        energy = self.l1_params.read_energy_nj
        if level.depth >= 1:
            energy += self.l2_params.read_energy_nj
        if level.depth >= 2:
            energy += self.mem_params.read_energy_nj
        return energy

    def store_energy_nj(self, level: Level) -> float:
        """Energy of a store serviced at *level*.

        A load's walk, with the read at *level* replaced by a write.
        """
        params = self.params(level)
        energy = self.load_energy_nj(level)
        energy += params.write_energy_nj - params.read_energy_nj
        return energy

    def load_latency_ns(self, level: Level) -> float:
        """Round-trip latency of a load serviced at *level*."""
        return self.params(level).latency_ns


#: Paper Table 3 per-level parameters (22nm).
PAPER_L1_PARAMS = LevelParams(read_energy_nj=0.88, write_energy_nj=0.88, latency_ns=3.66)
PAPER_L2_PARAMS = LevelParams(read_energy_nj=7.72, write_energy_nj=7.72, latency_ns=24.77)
PAPER_MEM_PARAMS = LevelParams(read_energy_nj=52.14, write_energy_nj=62.14, latency_ns=100.0)


def paper_geometry() -> MachineConfig:
    """The exact simulated architecture of paper Table 3.

    32KB 8-way L1-D and 512KB 8-way L2 with 64B lines, in word terms:
    L1 holds 512 lines of 8 words; L2 holds 8192 lines of 8 words.
    """
    return MachineConfig(
        l1_geometry=CacheGeometry(total_lines=512, associativity=8),
        l2_geometry=CacheGeometry(total_lines=8192, associativity=8),
        l1_params=PAPER_L1_PARAMS,
        l2_params=PAPER_L2_PARAMS,
        mem_params=PAPER_MEM_PARAMS,
    )


def default_config() -> MachineConfig:
    """Scaled-down geometry used by the evaluation harness.

    Capacities shrink 32x (16 lines / 128 words of L1, 128 lines / 1024
    words of L2) while keeping associativity, write-back LRU policies,
    and all energy/latency parameters.  Synthetic kernels with
    kilobyte-scale footprints then exercise the same L1/L2/MEM
    service-level profiles the paper's benchmarks exhibit at SPEC scale
    (documented per benchmark in ``repro.workloads.suite``), and whole
    evaluation sweeps stay laptop-fast on a Python interpreter.
    """
    return MachineConfig(
        l1_geometry=CacheGeometry(total_lines=16, associativity=8),
        l2_geometry=CacheGeometry(total_lines=128, associativity=8),
        l1_params=PAPER_L1_PARAMS,
        l2_params=PAPER_L2_PARAMS,
        mem_params=PAPER_MEM_PARAMS,
    )
