"""Batchable straight-line region analysis (the fastpath precondition).

The per-pc fast path retires one instruction per dispatch because every
pc might branch, fault, or enter the amnesic machinery.  The batched
backend (``machine/fastpath.py``) fuses straight-line runs into single
dispatch units, and needs exactly the guarantee this module derives
statically: a maximal run of instructions with one entry (no branch
target lands mid-run), one exit (no control transfer inside), and no
amnesic opcode (``RCMP``/``REC``/``RTN`` touch Hist and the scheduler).
Within a run the only per-instruction hazards left are faults (memory
accesses and trapping compute), which the backend handles by marking
each fault point, so every such run outside a slice fuses.

The analysis also proves the self-loops a backend may run in one
dispatch: a conditional-branch header at ``h`` whose fall-through is a
batchable, non-slice region ``[h+1, j)``, closed by a ``JMP`` back to
``h`` at ``j`` — exactly what ``ProgramBuilder.loop`` emits for a body
without control flow or amnesic opcodes.  One pass of such a loop is
the straight-line run ``[h, j]``: it leaves only through the header
(taken) or a fault in the body.

The batched backend runs :func:`analyze_regions` on every binary it
decodes and fuses its regions and loops from that fresh analysis (a
traced decode, its loops only); ``repro lint`` reports the same
analysis as the REG400 summary.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from ..isa.opcodes import Category, Opcode
from ..isa.program import Program
from .cfg import build_cfg

#: Opcodes that interact with the amnesic machinery; never batchable.
AMNESIC_OPCODES = frozenset({Opcode.RCMP, Opcode.RTN, Opcode.REC})


@dataclasses.dataclass(frozen=True)
class Region:
    """One maximal batchable straight-line run ``[start, end)``."""

    start: int
    end: int  # exclusive
    in_slice: bool
    slice_id: Optional[int]

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclasses.dataclass(frozen=True)
class Loop:
    """One self-loop: header ``h``, body region ``[h+1, j)``, ``JMP h`` at ``j``."""

    header: int
    body: Region

    @property
    def back(self) -> int:
        """The pc of the closing ``JMP`` (the loop-back)."""
        return self.body.end

    @property
    def length(self) -> int:
        """Instructions one pass retires: header, body and loop-back."""
        return self.back - self.header + 1


@dataclasses.dataclass
class RegionAnalysis:
    """Every batchable region and self-loop of one program, plus coverage."""

    program: str
    instructions: int
    regions: List[Region]
    loops: List[Loop]

    @property
    def batchable_regions(self) -> List[Region]:
        """Regions long enough that batching saves dispatches."""
        return [region for region in self.regions if region.length >= 2]

    @property
    def batchable_instructions(self) -> int:
        return sum(region.length for region in self.batchable_regions)

    @property
    def coverage(self) -> float:
        """Fraction of instructions inside a batchable region."""
        if not self.instructions:
            return 0.0
        return self.batchable_instructions / self.instructions

    @property
    def max_region_length(self) -> int:
        return max((region.length for region in self.regions), default=0)

    def summary(self) -> dict:
        return {
            "instructions": self.instructions,
            "regions": len(self.regions),
            "batchable_regions": len(self.batchable_regions),
            "batchable_instructions": self.batchable_instructions,
            "coverage": round(self.coverage, 4),
            "max_region_length": self.max_region_length,
            "loops": len(self.loops),
        }


def _region(program: Program, start: int, end: int) -> Region:
    region = program.slice_containing(start)
    return Region(
        start=start,
        end=end,
        in_slice=region is not None,
        slice_id=region.slice_id if region is not None else None,
    )


def _loop_around(program: Program, body: Region) -> Optional[Loop]:
    """The self-loop *body* is the body of, or None.

    The header ``h = body.start - 1`` must be a conditional branch whose
    target resolves, and ``body.end`` a ``JMP`` whose label resolves to
    ``h``.  The body must be batchable (two or more instructions) and
    outside every slice.
    """
    if body.length < 2 or body.in_slice:
        return None
    header, back = body.start - 1, body.end
    if header < 0 or back >= len(program.instructions):
        return None
    branch = program.instructions[header]
    jump = program.instructions[back]
    if (
        branch.opcode.category is not Category.BRANCH
        or branch.target not in program.labels
        or jump.opcode is not Opcode.JMP
        or program.labels.get(jump.target) != header
    ):
        return None
    return Loop(header=header, body=body)


def analyze_regions(program: Program) -> RegionAnalysis:
    """Find every maximal batchable straight-line region of *program*.

    Basic blocks already isolate single-entry runs (any branch target
    starts a new block), so regions are blocks with control transfers
    and amnesic opcodes split out.  Each region that is the body of a
    self-loop (see :func:`_loop_around`) also reports its loop.
    """
    regions: List[Region] = []
    for block in build_cfg(program).blocks:
        run_start: Optional[int] = None
        for pc in block.pcs:
            opcode = program.instructions[pc].opcode
            batchable = (
                not opcode.category.is_control and opcode not in AMNESIC_OPCODES
            )
            if batchable and run_start is None:
                run_start = pc
            elif not batchable and run_start is not None:
                regions.append(_region(program, run_start, pc))
                run_start = None
        if run_start is not None:
            regions.append(_region(program, run_start, block.end))
    loops = [_loop_around(program, region) for region in regions]
    return RegionAnalysis(
        program=program.name,
        instructions=len(program.instructions),
        regions=regions,
        loops=[loop for loop in loops if loop is not None],
    )


def describe(analysis: RegionAnalysis) -> str:
    """One-line human summary (the REG400 finding message)."""
    summary = analysis.summary()
    return (
        f"{summary['batchable_regions']} batchable region(s) cover "
        f"{summary['batchable_instructions']}/{summary['instructions']} "
        f"instruction(s) ({summary['coverage']:.0%}); longest run "
        f"{summary['max_region_length']}; {summary['loops']} self-loop(s)"
    )
