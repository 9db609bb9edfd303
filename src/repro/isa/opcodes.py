"""Opcode and instruction-category definitions for the mini RISC ISA.

The AMNESIAC paper operates on a RISC-style ISA (paper section 3.4 assumes
one explicitly).  This module defines the opcode vocabulary used throughout
the reproduction, together with the *category* of each opcode.  Categories
matter because the energy model charges energy per instruction (EPI) by
category, exactly as the paper's compiler computes the recomputation cost
``E_rc`` from "[instruction count per category] x [EPI per category]"
(paper section 3.1.1).
"""

from __future__ import annotations

import enum


class Category(enum.Enum):
    """Energy/semantics category of an opcode.

    ``INT_*`` and ``FP_*`` categories are the "Non-mem" instructions of the
    paper's Table 4; ``LOAD``/``STORE`` are the memory instructions whose
    energy dominates classic execution; ``BRANCH``/``JUMP`` are control
    flow; ``AMNESIC`` covers the three ISA extensions RCMP/RTN/REC
    introduced in paper section 3.1.2.
    """

    INT_ALU = "int_alu"
    INT_MUL = "int_mul"
    INT_DIV = "int_div"
    FP_ALU = "fp_alu"
    FP_MUL = "fp_mul"
    FP_DIV = "fp_div"
    FP_FMA = "fp_fma"
    MOVE = "move"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    JUMP = "jump"
    NOP = "nop"
    HALT = "halt"
    AMNESIC = "amnesic"

    #: Members are singletons and ``Enum`` compares by identity, so the
    #: identity hash agrees with equality and runs at C speed (the
    #: inherited one hashes the member name in Python).
    __hash__ = object.__hash__

    @property
    def is_memory(self) -> bool:
        """True for instructions that access the data memory hierarchy."""
        return self in (Category.LOAD, Category.STORE)

    @property
    def is_compute(self) -> bool:
        """True for value-producing ALU/FPU instructions ("Non-mem")."""
        return self in _COMPUTE_CATEGORIES

    @property
    def is_control(self) -> bool:
        """True for instructions that may redirect the program counter."""
        return self in (Category.BRANCH, Category.JUMP, Category.HALT)


_COMPUTE_CATEGORIES = frozenset(
    {
        Category.INT_ALU,
        Category.INT_MUL,
        Category.INT_DIV,
        Category.FP_ALU,
        Category.FP_MUL,
        Category.FP_DIV,
        Category.FP_FMA,
        Category.MOVE,
    }
)


class Opcode(enum.Enum):
    """The opcode vocabulary of the mini ISA.

    Arithmetic opcodes accept register or immediate source operands (the
    classic ``ADDI``-style forms fold into the same opcode), which keeps
    the opcode table small without losing RISC flavour.
    """

    # Integer ALU.
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    REM = "rem"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    SLT = "slt"
    SLE = "sle"
    SEQ = "seq"
    SNE = "sne"
    MIN = "min"
    MAX = "max"

    # Floating point.
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FMA = "fma"
    FMIN = "fmin"
    FMAX = "fmax"
    FSQRT = "fsqrt"
    FABS = "fabs"
    FNEG = "fneg"
    CVTIF = "cvtif"
    CVTFI = "cvtfi"

    # Data movement.
    MOV = "mov"
    LI = "li"

    # Memory.
    LD = "ld"
    ST = "st"

    # Control flow.
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BGE = "bge"
    JMP = "jmp"
    JAL = "jal"  # jump-and-link: call a subroutine, saving the return pc
    JR = "jr"  # jump-register: return through a link register
    NOP = "nop"
    HALT = "halt"

    # Amnesic ISA extensions (paper section 3.1.2).
    RCMP = "rcmp"  # fused conditional-branch + load
    RTN = "rtn"  # return from a recomputation slice
    REC = "rec"  # checkpoint non-recomputable leaf inputs into Hist

    #: Identity hashing at C speed (see :class:`Category`).
    __hash__ = object.__hash__

    @property
    def category(self) -> Category:
        """The energy/semantics category of this opcode."""
        return _OPCODE_CATEGORY[self]

    @property
    def is_memory(self) -> bool:
        return self.category.is_memory

    @property
    def is_compute(self) -> bool:
        return self.category.is_compute

    @property
    def is_amnesic(self) -> bool:
        return self.category is Category.AMNESIC


_OPCODE_CATEGORY = {
    Opcode.ADD: Category.INT_ALU,
    Opcode.SUB: Category.INT_ALU,
    Opcode.MUL: Category.INT_MUL,
    Opcode.DIV: Category.INT_DIV,
    Opcode.REM: Category.INT_DIV,
    Opcode.AND: Category.INT_ALU,
    Opcode.OR: Category.INT_ALU,
    Opcode.XOR: Category.INT_ALU,
    Opcode.SHL: Category.INT_ALU,
    Opcode.SHR: Category.INT_ALU,
    Opcode.SLT: Category.INT_ALU,
    Opcode.SLE: Category.INT_ALU,
    Opcode.SEQ: Category.INT_ALU,
    Opcode.SNE: Category.INT_ALU,
    Opcode.MIN: Category.INT_ALU,
    Opcode.MAX: Category.INT_ALU,
    Opcode.FADD: Category.FP_ALU,
    Opcode.FSUB: Category.FP_ALU,
    Opcode.FMUL: Category.FP_MUL,
    Opcode.FDIV: Category.FP_DIV,
    Opcode.FMA: Category.FP_FMA,
    Opcode.FMIN: Category.FP_ALU,
    Opcode.FMAX: Category.FP_ALU,
    Opcode.FSQRT: Category.FP_DIV,
    Opcode.FABS: Category.FP_ALU,
    Opcode.FNEG: Category.FP_ALU,
    Opcode.CVTIF: Category.FP_ALU,
    Opcode.CVTFI: Category.FP_ALU,
    Opcode.MOV: Category.MOVE,
    Opcode.LI: Category.MOVE,
    Opcode.LD: Category.LOAD,
    Opcode.ST: Category.STORE,
    Opcode.BEQ: Category.BRANCH,
    Opcode.BNE: Category.BRANCH,
    Opcode.BLT: Category.BRANCH,
    Opcode.BGE: Category.BRANCH,
    Opcode.JMP: Category.JUMP,
    Opcode.JAL: Category.JUMP,
    Opcode.JR: Category.JUMP,
    Opcode.NOP: Category.NOP,
    Opcode.HALT: Category.HALT,
    Opcode.RCMP: Category.AMNESIC,
    Opcode.RTN: Category.AMNESIC,
    Opcode.REC: Category.AMNESIC,
}

#: Opcodes that produce a register value and are therefore eligible to
#: appear inside a recomputation slice.  Paper section 3.4: "the amnesic
#: microarchitecture only processes instructions with register source
#: operands and register destinations, and excludes memory or control flow
#: instructions".
SLICEABLE_OPCODES = frozenset(op for op in Opcode if op.is_compute)

#: Number of source operands each opcode consumes (excluding branch
#: targets and amnesic metadata).
ARITY = {
    **{op: 2 for op in Opcode if op.is_compute},
    Opcode.FMA: 3,
    Opcode.FSQRT: 1,
    Opcode.FABS: 1,
    Opcode.FNEG: 1,
    Opcode.CVTIF: 1,
    Opcode.CVTFI: 1,
    Opcode.MOV: 1,
    Opcode.LI: 1,
    Opcode.LD: 2,
    Opcode.ST: 3,
    Opcode.BEQ: 2,
    Opcode.BNE: 2,
    Opcode.BLT: 2,
    Opcode.BGE: 2,
    Opcode.JMP: 0,
    Opcode.JAL: 0,
    Opcode.JR: 1,
    Opcode.NOP: 0,
    Opcode.HALT: 0,
    Opcode.RCMP: 2,
    Opcode.RTN: 0,
    Opcode.REC: 0,  # REC carries a variable-length checkpoint list instead
}

#: The maximum number of renaming requests a recomputing instruction can
#: raise: max #sources + max #destinations (paper section 3.4 derives 3
#: for a 2-source RISC; our FMA raises it to 4 and tests cover both).
MAX_RENAME_REQUESTS = max(ARITY[op] for op in SLICEABLE_OPCODES) + 1
