"""Control-flow graphs over mini-ISA programs.

The CFG treats the *main region* (everything outside embedded slice
regions) as ordinary control flow and each slice region as a private,
straight-line subgraph only enterable through its owning ``RCMP``:

* conditional branches have two successors (fallthrough, target);
* ``JMP``/``JAL`` go to their label; ``JR`` is approximated by the
  return-site set — the pc after every ``JAL`` in the program (the ISA
  has no other way to materialize a code address);
* ``RCMP`` has its fallthrough successor *and* a slice-entry edge; the
  slice's terminating ``RTN`` returns to the RCMP's fallthrough, which
  is how the scheduler actually resumes (paper section 3.3.2);
* ``HALT`` ends execution.

A fallthrough or branch that lands at ``len(program)`` "runs off the
end"; ``validate_program`` permits such labels, so the CFG records the
possibility instead of failing (rule CFG003 reports it).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, Iterator, List, Optional, Set

from ..isa.instructions import Instruction
from ..isa.opcodes import Category, Opcode
from ..isa.program import Program

#: Control opcodes with an unconditional transfer (no fallthrough edge).
_NO_FALLTHROUGH = frozenset({Opcode.JMP, Opcode.JAL, Opcode.JR, Opcode.HALT,
                             Opcode.RTN})


@dataclasses.dataclass(frozen=True)
class Edge:
    """One control-flow edge, tagged with how it is taken."""

    src: int
    dst: int
    kind: str  # "fall" | "branch" | "jump" | "call" | "return" | "rcmp" | "rtn"


@dataclasses.dataclass
class BasicBlock:
    """A maximal single-entry straight-line run of instructions."""

    index: int
    start: int
    end: int  # exclusive
    successors: List[int] = dataclasses.field(default_factory=list)
    predecessors: List[int] = dataclasses.field(default_factory=list)

    @property
    def pcs(self) -> range:
        return range(self.start, self.end)

    def __contains__(self, pc: int) -> bool:
        return self.start <= pc < self.end


class ControlFlowGraph:
    """Per-instruction and per-block control flow of one program."""

    def __init__(self, program: Program):
        self.program = program
        size = len(program.instructions)
        self._return_sites = tuple(
            pc + 1
            for pc, instruction in enumerate(program.instructions)
            if instruction.opcode is Opcode.JAL and pc + 1 <= size
        )
        self.edges: List[Edge] = []
        self.successors: Dict[int, List[int]] = {pc: [] for pc in range(size)}
        self.off_end: Set[int] = set()  # pcs with a possible off-end transfer
        self._build_edges()
        self.predecessors: Dict[int, List[int]] = {pc: [] for pc in range(size)}
        for edge in self.edges:
            if edge.dst < size:
                self.predecessors[edge.dst].append(edge.src)
        self.blocks: List[BasicBlock] = []
        self.block_of: Dict[int, int] = {}
        self._build_blocks()

    # ------------------------------------------------------------------
    # Edge construction.
    # ------------------------------------------------------------------
    def _add_edge(self, src: int, dst: int, kind: str) -> None:
        if dst >= len(self.program.instructions):
            self.off_end.add(src)
            return
        self.edges.append(Edge(src, dst, kind))
        self.successors[src].append(dst)

    def _build_edges(self) -> None:
        program = self.program
        for pc, instruction in enumerate(program.instructions):
            opcode = instruction.opcode
            if opcode is Opcode.HALT:
                continue
            if opcode is Opcode.RTN:
                region = program.slice_containing(pc)
                if region is not None:
                    self._add_edge(pc, region.load_pc + 1, "rtn")
                continue
            if opcode is Opcode.JR:
                for site in self._return_sites:
                    self._add_edge(pc, site, "return")
                continue
            if opcode in (Opcode.JMP, Opcode.JAL):
                kind = "call" if opcode is Opcode.JAL else "jump"
                self._add_edge(pc, program.pc_of(instruction.target), kind)
                continue
            if opcode is Opcode.RCMP:
                self._add_edge(pc, pc + 1, "fall")
                self._add_edge(pc, program.pc_of(instruction.target), "rcmp")
                continue
            if opcode.category is Category.BRANCH:
                self._add_edge(pc, pc + 1, "fall")
                self._add_edge(pc, program.pc_of(instruction.target), "branch")
                continue
            self._add_edge(pc, pc + 1, "fall")

    # ------------------------------------------------------------------
    # Block construction.
    # ------------------------------------------------------------------
    def _leaders(self) -> List[int]:
        size = len(self.program.instructions)
        leaders: Set[int] = set()
        if size:
            leaders.add(0)
        for edge in self.edges:
            if edge.kind != "fall":
                leaders.add(edge.dst)
        for pc, instruction in enumerate(self.program.instructions):
            if instruction.opcode.category.is_control and pc + 1 < size:
                leaders.add(pc + 1)
            if instruction.opcode is Opcode.RCMP and pc + 1 < size:
                leaders.add(pc + 1)
        for region in self.program.slices.values():
            leaders.add(region.start)
            if region.end < size:
                leaders.add(region.end)
        return sorted(leaders)

    def _build_blocks(self) -> None:
        size = len(self.program.instructions)
        leaders = self._leaders()
        for index, start in enumerate(leaders):
            end = leaders[index + 1] if index + 1 < len(leaders) else size
            block = BasicBlock(index=index, start=start, end=end)
            self.blocks.append(block)
            for pc in range(start, end):
                self.block_of[pc] = index
        for block in self.blocks:
            if block.start == block.end:
                continue
            last = block.end - 1
            seen: Set[int] = set()
            for dst in self.successors[last]:
                succ = self.block_of[dst]
                if succ not in seen:
                    seen.add(succ)
                    block.successors.append(succ)
                    self.blocks[succ].predecessors.append(block.index)

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    def instruction_at(self, pc: int) -> Instruction:
        return self.program.instructions[pc]

    def reachable_pcs(self, entry: int = 0) -> FrozenSet[int]:
        """All pcs reachable from *entry* along CFG edges."""
        if not self.program.instructions:
            return frozenset()
        seen: Set[int] = set()
        stack = [entry]
        while stack:
            pc = stack.pop()
            if pc in seen:
                continue
            seen.add(pc)
            stack.extend(self.successors[pc])
        return frozenset(seen)

    def reaches(self, src: int, dst: int, avoiding: Optional[int] = None) -> bool:
        """True when a CFG path leads from *src* to *dst*.

        With *avoiding* set, only paths whose interior skips that pc
        count (the path may still start or end there).
        """
        stack = list(self.successors[src])
        seen: Set[int] = set()
        while stack:
            pc = stack.pop()
            if pc == dst:
                return True
            if pc in seen or pc == avoiding:
                continue
            seen.add(pc)
            stack.extend(self.successors[pc])
        return False

    def iter_main_pcs(self) -> Iterator[int]:
        """PCs of the main region (outside every slice region)."""
        for pc in range(len(self.program.instructions)):
            if self.program.slice_containing(pc) is None:
                yield pc


def build_cfg(program: Program) -> ControlFlowGraph:
    """Construct the CFG of *program*."""
    return ControlFlowGraph(program)
