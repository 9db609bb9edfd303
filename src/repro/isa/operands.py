"""Operand model for the mini RISC ISA.

Ordinary program instructions use :class:`Reg` and :class:`Imm` operands.
Recomputing instructions embedded in a slice additionally use
:class:`SReg` (a scratch-file register, paper section 3.2) and
:class:`HistRef` (a non-recomputable leaf input read from the history
table, paper sections 2.2 and 3.2).  Keeping the operand kind explicit in
the IR mirrors the paper's annotation scheme, where "the compiler changes
source register identifiers of leaf instructions reading their operands
from Hist to an invalid number" (section 3.5).
"""

from __future__ import annotations

import dataclasses
from typing import Union

#: Number of architectural registers.  ``r0`` is hardwired to zero.
NUM_REGISTERS = 32


@dataclasses.dataclass(frozen=True)
class Reg:
    """An architectural register reference ``r0 .. r31``."""

    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < NUM_REGISTERS:
            raise ValueError(f"register index out of range: {self.index}")

    def __str__(self) -> str:
        return f"r{self.index}"


@dataclasses.dataclass(frozen=True)
class Imm:
    """An immediate (constant) operand."""

    value: Union[int, float]

    def __str__(self) -> str:
        return f"#{self.value}"


@dataclasses.dataclass(frozen=True)
class SReg:
    """A scratch-file register used only inside recomputation slices.

    SReg indices are virtual: the amnesic Renamer maps them to physical
    SFile entries at runtime, exactly like rename logic maps architectural
    to physical registers in an out-of-order core (paper section 3.2).
    """

    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"scratch register index must be >= 0: {self.index}")

    def __str__(self) -> str:
        return f"s{self.index}"


@dataclasses.dataclass(frozen=True)
class HistRef:
    """A leaf input operand supplied by the history table at runtime.

    ``leaf_id`` identifies the leaf instruction within its slice (the
    paper's ``leaf-address``); ``slot`` selects which of the leaf's
    checkpointed source operands to read.
    """

    leaf_id: int
    slot: int

    def __post_init__(self) -> None:
        if self.leaf_id < 0 or self.slot < 0:
            raise ValueError(f"invalid HistRef({self.leaf_id}, {self.slot})")

    def __str__(self) -> str:
        return f"h{self.leaf_id}.{self.slot}"


Operand = Union[Reg, Imm, SReg, HistRef]

#: Register index conventionally hardwired to integer zero.
ZERO_REG = Reg(0)
