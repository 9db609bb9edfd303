"""Reusable kernel-pattern emitters.

Every reproduced benchmark is composed from a handful of access/compute
patterns, each of which is *provably recomputable* (or deliberately
not), so the amnesic compiler's strict replay validation accepts exactly
the loads we intend it to swap:

* **phase-constant region** — an outer phase recomputes a value through
  a dependence chain and rewrites a whole region with it; scattered
  reads of the region are swappable (their producer chain re-executes
  exactly), and the region/cache size ratio dials the L1/L2/MEM service
  profile of Table 5.
* **spill-reload** — a value is produced, spilled, and reloaded in
  lockstep within one iteration, with a tunable eviction gap between
  spill and reload.
* **background** — read-only streams, pointer chases, and pure-compute
  blocks: *unswappable* work that sets the baseline energy mix and
  provides cache pressure.

The emitters write straight-line/loop code through the
:class:`~repro.isa.builder.ProgramBuilder` DSL and take their scratch
registers explicitly so composite kernels can budget the 31 usable
architectural registers.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ...isa.builder import ProgramBuilder
from ...isa.opcodes import Opcode
from ...isa.operands import Reg

#: LCG constants (numerical-recipes flavour); arithmetic wraps in int64.
LCG_MUL = 1103515245
LCG_ADD = 12345


@dataclasses.dataclass
class PatternRegs:
    """The shared scratch registers a composite kernel hands to emitters."""

    lcg: Reg  # pseudo-random address state
    addr: Reg  # effective address scratch
    value: Reg  # loaded/produced value scratch
    sink: Reg  # accumulation sink (keeps loads live)
    mask: Reg  # computed mask scratch
    cond: Reg  # comparison scratch
    chain: Reg  # value-chain accumulator
    seed: Reg  # value-chain seed

    @classmethod
    def allocate(cls, builder: ProgramBuilder) -> "PatternRegs":
        names = ["lcg", "addr", "value", "sink", "mask", "cond", "chain", "seed"]
        regs = builder.regs(*[f"_pat_{n}" for n in names])
        return cls(*regs)


# ----------------------------------------------------------------------
# Value chains: the future slice bodies.
# ----------------------------------------------------------------------
#: Opcode/immediate steps the chain cycles through.  All integer, all
#: bijective enough to keep values varied, none that can fault.
_CHAIN_STEPS = (
    (Opcode.MUL, 37),
    (Opcode.ADD, 1013904223),
    (Opcode.XOR, 0x5DEECE66D),
    (Opcode.ADD, 11),
    (Opcode.MUL, 25214903917),
    (Opcode.XOR, 0x2545F4914F6CDD1D),
)


def emit_value_chain(
    builder: ProgramBuilder,
    regs: PatternRegs,
    length: int,
) -> None:
    """Compute ``chain = f(seed)`` through *length* dependent operations.

    The chain becomes the recomputation slice of any load that reads a
    value derived from ``regs.chain``; *length* therefore dials the
    Figure 6 slice-length distribution.  Whether the resulting slice has
    non-recomputable (Hist-checkpointed) leaf inputs is decided by how
    the caller *seeds* it: a loop-counter-derived seed stays live (the
    slice re-derives everything from registers), while a seed loaded
    from memory becomes a checkpoint-load leaf — see
    :func:`emit_seed_from_memory`, the Figure 7 knob.
    """
    if length < 1:
        raise ValueError("chain length must be >= 1")
    builder.op(Opcode.MOV, regs.chain, regs.seed)
    for step in range(length - 1):
        opcode, immediate = _CHAIN_STEPS[step % len(_CHAIN_STEPS)]
        builder.op(opcode, regs.chain, regs.chain, immediate)


def emit_seed_from_memory(
    builder: ProgramBuilder,
    regs: PatternRegs,
    source: "Region",
    index_reg: Reg,
) -> None:
    """Load ``regs.seed`` from a read-only region, indexed by *index_reg*.

    The seed load cannot itself be swapped (it reads program input), so
    it survives in the binary as the REC-checkpointed source of every
    slice built over the chain — producing the paper's "w/ nc" slices
    whose leaf inputs live in the history table (Figure 7).
    """
    builder.op(Opcode.AND, regs.addr, index_reg, source.mask)
    builder.add(regs.addr, regs.addr, source.base_reg)
    builder.ld(regs.seed, regs.addr)


# ----------------------------------------------------------------------
# Phase-constant regions.
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Region:
    """A memory region rewritten wholesale by its owning phase loop."""

    base: int
    words: int  # power of two
    base_reg: Reg

    @property
    def mask(self) -> int:
        return self.words - 1


def allocate_region(builder: ProgramBuilder, name: str, words: int) -> Region:
    """Reserve a power-of-two *words* region and load its base register."""
    if words & (words - 1):
        raise ValueError("region size must be a power of two")
    base = builder.reserve(words)
    base_reg = builder.reg(f"_region_{name}")
    builder.li(base_reg, base)
    return Region(base=base, words=words, base_reg=base_reg)


def emit_region_fill(
    builder: ProgramBuilder,
    regs: PatternRegs,
    region: Region,
    counter: str,
) -> None:
    """Overwrite every word of *region* with the current chain value."""
    with builder.loop(counter, 0, region.words) as index:
        builder.add(regs.addr, region.base_reg, index)
        builder.st(regs.chain, regs.addr)


def emit_constant_fill(
    builder: ProgramBuilder,
    regs: PatternRegs,
    region: Region,
    constant: int,
    counter: str,
) -> None:
    """Overwrite every word of *region* with an immediate.

    Loads of the region then recompute through a single ``LI`` — the
    shortest possible slice, with no history-table dependence (bfs-style
    visited flags, zeroed buffers).
    """
    from ...isa.operands import Imm

    with builder.loop(counter, 0, region.words) as index:
        builder.add(regs.addr, region.base_reg, index)
        builder.st(Imm(constant), regs.addr)


def emit_scatter_reads(
    builder: ProgramBuilder,
    regs: PatternRegs,
    region: Region,
    sites: int,
    repeats: int,
    counter: str,
    hot_mask: Optional[int] = None,
    cold_every: int = 0,
) -> None:
    """Emit *sites* static loads, each executed *repeats* times per call.

    Addresses are pseudo-random within the region.  With *hot_mask* the
    reads normally stay inside a small hot subset (L1-resident) and
    every *cold_every*-th repeat roams the full region — the per-load
    service-level mixing observed for the paper's benchmarks (Table 5
    shows the same static loads serviced by L1, L2 and memory).
    """
    if hot_mask is not None and cold_every < 1:
        raise ValueError("cold_every must be >= 1 when hot_mask is used")
    with builder.loop(counter, 0, repeats) as repeat:
        for _site in range(sites):
            builder.mul(regs.lcg, regs.lcg, LCG_MUL)
            builder.add(regs.lcg, regs.lcg, LCG_ADD)
            if hot_mask is None:
                builder.op(Opcode.AND, regs.mask, regs.lcg, region.mask)
            else:
                # mask = cold ? full : hot, branch-free.
                builder.op(Opcode.REM, regs.cond, repeat, cold_every)
                builder.op(Opcode.SEQ, regs.cond, regs.cond, 0)
                builder.mul(regs.mask, regs.cond, region.mask - hot_mask)
                builder.add(regs.mask, regs.mask, hot_mask)
                builder.op(Opcode.AND, regs.mask, regs.lcg, regs.mask)
            builder.add(regs.addr, region.base_reg, regs.mask)
            builder.ld(regs.value, regs.addr)
            builder.add(regs.sink, regs.sink, regs.value)


# ----------------------------------------------------------------------
# Spill/reload (lockstep produce -> spill -> gap -> reload).
# ----------------------------------------------------------------------
def emit_spill_reload(
    builder: ProgramBuilder,
    regs: PatternRegs,
    region: Region,
    background: Optional[Region],
    iterations: int,
    chain_length: int,
    gap_reads: int,
    counter: str,
    gap_counter: str,
    seed_source: Optional["Region"] = None,
    slot_stride: int = 8,
) -> None:
    """The spill-reload pattern: values vary per iteration (low locality).

    Each iteration derives a fresh seed from the loop counter, produces
    a value through the chain, spills it to a line-aligned slot, streams
    *gap_reads* background words (evicting the slot from closer cache
    levels), then reloads the slot — the reload is the swappable load.
    """
    with builder.loop(counter, 0, iterations) as index:
        if seed_source is None:
            builder.mul(regs.seed, index, 2654435761)
        else:
            emit_seed_from_memory(builder, regs, seed_source, index)
        emit_value_chain(builder, regs, chain_length)
        builder.mul(regs.mask, index, slot_stride)
        builder.op(Opcode.AND, regs.mask, regs.mask, region.mask)
        builder.add(regs.addr, region.base_reg, regs.mask)
        builder.st(regs.chain, regs.addr)
        if background is not None and gap_reads > 0:
            # Advance the stream window each iteration so the gap keeps
            # touching fresh lines rather than a cached prefix.
            offset = builder.reg("_gap_offset")
            builder.mul(offset, index, gap_reads * 8)
            emit_stream_reads(
                builder,
                regs,
                background,
                gap_reads,
                gap_counter,
                stride=8,
                offset_reg=offset,
            )
        builder.mul(regs.mask, index, slot_stride)
        builder.op(Opcode.AND, regs.mask, regs.mask, region.mask)
        builder.add(regs.addr, region.base_reg, regs.mask)
        builder.ld(regs.value, regs.addr)
        builder.add(regs.sink, regs.sink, regs.value)


# ----------------------------------------------------------------------
# Unswappable background work.
# ----------------------------------------------------------------------
def allocate_input(builder: ProgramBuilder, name: str, words: int, seed: int = 1) -> Region:
    """A read-only (program input) region: loads from it are unswappable."""
    if words & (words - 1):
        raise ValueError("input size must be a power of two")
    values = []
    state = seed
    for _ in range(words):
        state = (state * LCG_MUL + LCG_ADD) & 0x7FFFFFFF
        values.append(state)
    base = builder.data(values, read_only=True)
    base_reg = builder.reg(f"_input_{name}")
    builder.li(base_reg, base)
    return Region(base=base, words=words, base_reg=base_reg)


def emit_stream_reads(
    builder: ProgramBuilder,
    regs: PatternRegs,
    region: Region,
    count: int,
    counter: str,
    stride: int = 1,
    offset_reg: Optional[Reg] = None,
) -> None:
    """Sequentially stream *count* reads with *stride* through a region.

    With *offset_reg* the stream starts at a caller-controlled offset so
    repeated invocations touch fresh lines (real eviction pressure)
    instead of re-reading a cached prefix.
    """
    with builder.loop(counter, 0, count) as index:
        builder.mul(regs.addr, index, stride)
        if offset_reg is not None:
            builder.add(regs.addr, regs.addr, offset_reg)
        builder.op(Opcode.AND, regs.addr, regs.addr, region.mask)
        builder.add(regs.addr, regs.addr, region.base_reg)
        builder.ld(regs.value, regs.addr)
        builder.add(regs.sink, regs.sink, regs.value)


def allocate_chase_input(builder: ProgramBuilder, name: str, nodes: int) -> Region:
    """A read-only permutation array for pointer chasing (mcf flavour)."""
    if nodes & (nodes - 1):
        raise ValueError("node count must be a power of two")
    # A maximal-period walk: next[i] = (i * 5 + 17) % nodes visits every
    # node (5 is coprime with the power-of-two size).
    values = [(i * 5 + 17) % nodes for i in range(nodes)]
    base = builder.data(values, read_only=True)
    base_reg = builder.reg(f"_chase_{name}")
    builder.li(base_reg, base)
    return Region(base=base, words=nodes, base_reg=base_reg)


def emit_pointer_chase(
    builder: ProgramBuilder,
    regs: PatternRegs,
    chase: Region,
    steps: int,
    counter: str,
    cursor: Reg,
) -> None:
    """Chase *steps* pointers through a read-only next[] array."""
    with builder.loop(counter, 0, steps):
        builder.op(Opcode.AND, regs.addr, cursor, chase.mask)
        builder.add(regs.addr, regs.addr, chase.base_reg)
        builder.ld(cursor, regs.addr)
        builder.add(regs.sink, regs.sink, cursor)


def emit_compute_block(
    builder: ProgramBuilder,
    regs: PatternRegs,
    iterations: int,
    ops_per_iteration: int,
    counter: str,
    use_fp: bool = True,
) -> None:
    """Pure compute: a dependent FP/int chain, no memory traffic."""
    fp = builder.reg("_fp_acc")
    builder.op(Opcode.CVTIF, fp, regs.sink)
    with builder.loop(counter, 0, iterations):
        for step in range(ops_per_iteration):
            if use_fp and step % 3 == 0:
                builder.op(Opcode.FMA, fp, fp, 1.000000119, 0.3)
            elif use_fp and step % 3 == 1:
                builder.op(Opcode.FMUL, fp, fp, 0.99999988)
            else:
                builder.op(Opcode.XOR, regs.cond, regs.sink, 0x9E3779B9)
                builder.add(regs.sink, regs.sink, regs.cond)
    builder.op(Opcode.CVTFI, regs.cond, fp)
    builder.add(regs.sink, regs.sink, regs.cond)
