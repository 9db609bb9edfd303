"""Program container: instructions, labels, data segments, slice regions.

A :class:`Program` is the unit the simulator executes and the amnesic
compiler rewrites.  Besides the instruction stream and its labels it
carries:

* a :class:`DataSegment` describing initial memory contents, with
  optional read-only ranges — the paper's "read-only values to be loaded
  from memory, such as program inputs" (section 2.2) that can never be
  recomputed;
* :class:`SliceRegion` records locating each embedded recomputation
  slice.  Slices live after the final ``HALT`` so normal control flow can
  only enter them through an ``RCMP`` branch, mirroring how the paper's
  compiler "inserts the constructed RSlice in the binary" (section 3.1.2).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..errors import ValidationError
from .instructions import Instruction
from .opcodes import Opcode

Number = Union[int, float]


@dataclasses.dataclass
class DataSegment:
    """Initial memory image of a program.

    ``cells`` maps word addresses to initial values.  Addresses inside
    ``read_only`` ranges are program inputs: stores to them fault, and
    the amnesic compiler treats loads from them as non-recomputable.
    """

    cells: Dict[int, Number] = dataclasses.field(default_factory=dict)
    read_only: List[Tuple[int, int]] = dataclasses.field(default_factory=list)

    def place(self, base: int, values: List[Number], read_only: bool = False) -> int:
        """Place *values* consecutively starting at *base*; return next free address."""
        for i, value in enumerate(values):
            self.cells[base + i] = value
        if read_only and values:
            self.read_only.append((base, base + len(values)))
        return base + len(values)

    def is_read_only(self, address: int) -> bool:
        """True if *address* falls inside a read-only range."""
        return any(lo <= address < hi for lo, hi in self.read_only)

    def copy(self) -> "DataSegment":
        return DataSegment(dict(self.cells), list(self.read_only))


@dataclasses.dataclass
class SliceRegion:
    """Location and ownership of one embedded recomputation slice."""

    slice_id: int
    entry_label: str
    start: int
    end: int  # index one past the slice's RTN
    load_pc: int  # static pc of the owning RCMP

    def __contains__(self, pc: int) -> bool:
        return self.start <= pc < self.end


class Program:
    """An assembled program: instruction stream + labels + data + slices."""

    def __init__(self, name: str = "program") -> None:
        self.name = name
        self.instructions: List[Instruction] = []
        self.labels: Dict[str, int] = {}
        self.data = DataSegment()
        self.slices: Dict[int, SliceRegion] = {}

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------
    def append(self, instruction: Instruction) -> int:
        """Append *instruction*; return its pc."""
        self.instructions.append(instruction)
        return len(self.instructions) - 1

    def add_label(self, label: str, pc: Optional[int] = None) -> None:
        """Bind *label* to *pc* (default: the next appended instruction)."""
        if label in self.labels:
            raise ValidationError(f"duplicate label: {label}")
        self.labels[label] = len(self.instructions) if pc is None else pc

    def register_slice(self, region: SliceRegion) -> None:
        """Record an embedded slice region."""
        if region.slice_id in self.slices:
            raise ValidationError(f"duplicate slice id: {region.slice_id}")
        self.slices[region.slice_id] = region

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def instruction_at(self, pc: int) -> Instruction:
        """The instruction at *pc* (raises ``IndexError`` when out of range)."""
        return self.instructions[pc]

    def pc_of(self, label: str) -> int:
        """Resolve *label* to a pc."""
        try:
            return self.labels[label]
        except KeyError:
            raise ValidationError(f"undefined label: {label}") from None

    def slice_containing(self, pc: int) -> Optional[SliceRegion]:
        """The slice region containing *pc*, if any."""
        for region in self.slices.values():
            if pc in region:
                return region
        return None

    def static_loads(self) -> List[int]:
        """PCs of all LD instructions outside slice regions."""
        return [
            pc
            for pc, instruction in enumerate(self.instructions)
            if instruction.opcode is Opcode.LD and self.slice_containing(pc) is None
        ]

    def static_rcmp(self) -> List[int]:
        """PCs of all RCMP instructions."""
        return [
            pc
            for pc, instruction in enumerate(self.instructions)
            if instruction.opcode is Opcode.RCMP
        ]

    # ------------------------------------------------------------------
    # Rendering.
    # ------------------------------------------------------------------
    def render(self) -> str:
        """Human-readable disassembly, with labels and slice markers."""
        pc_labels: Dict[int, List[str]] = {}
        for label, pc in self.labels.items():
            pc_labels.setdefault(pc, []).append(label)
        lines = []
        for pc, instruction in enumerate(self.instructions):
            for label in sorted(pc_labels.get(pc, [])):
                lines.append(f"{label}:")
            region = self.slice_containing(pc)
            marker = f"  ; RSlice {region.slice_id}" if region and pc == region.start else ""
            lines.append(f"  {pc:5d}  {instruction}{marker}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Program({self.name!r}, {len(self.instructions)} instructions, "
            f"{len(self.slices)} slices)"
        )
