"""Mini RISC-style ISA: opcodes, operands, instructions, programs.

This package is the instruction-set substrate of the AMNESIAC
reproduction.  The public surface is:

* :class:`Opcode` / :class:`Category` — opcode vocabulary and energy
  categories;
* :class:`Reg`, :class:`Imm`, :class:`SReg`, :class:`HistRef` — operands;
* :class:`Instruction` plus the constructor helpers (``alu``, ``load``,
  ``store``, ``branch``, ``rcmp``, ``rtn``, ``rec`` ...);
* :class:`Program`, :class:`DataSegment`, :class:`SliceRegion`;
* :class:`ProgramBuilder` — the kernel-writing DSL;
* ``validate_program`` — static structural checks;
* ``evaluate`` / ``branch_taken`` — pure value semantics.
"""

from .builder import DATA_BASE, ProgramBuilder
from .instructions import (
    Instruction,
    alu,
    branch,
    halt,
    jump,
    li,
    load,
    rcmp,
    rec,
    rtn,
    store,
)
from .opcodes import (
    ARITY,
    MAX_RENAME_REQUESTS,
    SLICEABLE_OPCODES,
    Category,
    Opcode,
)
from .operands import (
    NUM_REGISTERS,
    ZERO_REG,
    HistRef,
    Imm,
    Operand,
    Reg,
    SReg,
)
from .program import DataSegment, Program, SliceRegion
from .semantics import branch_taken, evaluate, wrap_int64
from .validate import validate_program

__all__ = [
    "ARITY",
    "DATA_BASE",
    "MAX_RENAME_REQUESTS",
    "NUM_REGISTERS",
    "SLICEABLE_OPCODES",
    "ZERO_REG",
    "Category",
    "DataSegment",
    "HistRef",
    "Imm",
    "Instruction",
    "Opcode",
    "Operand",
    "Program",
    "ProgramBuilder",
    "Reg",
    "SReg",
    "SliceRegion",
    "alu",
    "branch",
    "branch_taken",
    "evaluate",
    "halt",
    "jump",
    "li",
    "load",
    "rcmp",
    "rec",
    "rtn",
    "store",
    "validate_program",
    "wrap_int64",
]
