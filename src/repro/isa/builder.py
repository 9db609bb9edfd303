"""A small DSL for writing kernels in the mini ISA.

:class:`ProgramBuilder` keeps kernel code readable: named registers, a
bump allocator for data placement, structured ``loop``/``when`` blocks
that lower to labels and branches, and thin wrappers over the common
opcodes.  Workload generators (``repro.workloads``) are the main client.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List, Optional, Sequence, Union

from ..errors import ValidationError
from .instructions import Instruction, alu, branch, halt, jump, li, load, store
from .opcodes import Opcode
from .operands import NUM_REGISTERS, Imm, Operand, Reg
from .program import Number, Program

#: First word address handed out by the builder's data allocator.  Leaving
#: low addresses unused catches stray zero-base accesses in tests.
DATA_BASE = 0x1000

_INVERSE_BRANCH = {
    Opcode.BEQ: Opcode.BNE,
    Opcode.BNE: Opcode.BEQ,
    Opcode.BLT: Opcode.BGE,
    Opcode.BGE: Opcode.BLT,
}


class ProgramBuilder:
    """Incrementally builds a :class:`~repro.isa.program.Program`."""

    def __init__(self, name: str = "program") -> None:
        self.program = Program(name)
        self._next_register = 1  # r0 is hardwired zero
        self._named_registers = {}
        self._next_data = DATA_BASE
        self._label_counter = 0

    # ------------------------------------------------------------------
    # Registers and data.
    # ------------------------------------------------------------------
    def reg(self, name: str) -> Reg:
        """Return the register bound to *name*, allocating on first use."""
        if name not in self._named_registers:
            if self._next_register >= NUM_REGISTERS:
                raise ValidationError(
                    f"out of architectural registers while allocating {name!r}"
                )
            self._named_registers[name] = Reg(self._next_register)
            self._next_register += 1
        return self._named_registers[name]

    def regs(self, *names: str) -> List[Reg]:
        """Allocate/fetch several named registers at once."""
        return [self.reg(name) for name in names]

    @property
    def zero(self) -> Reg:
        """The hardwired zero register r0."""
        return Reg(0)

    def data(self, values: Sequence[Number], read_only: bool = False) -> int:
        """Place *values* in memory; return their base word address."""
        base = self._next_data
        self._next_data = self.program.data.place(base, list(values), read_only)
        return base

    def reserve(self, count: int, fill: Number = 0) -> int:
        """Reserve *count* writable words initialised to *fill*."""
        return self.data([fill] * count, read_only=False)

    # ------------------------------------------------------------------
    # Raw emission.
    # ------------------------------------------------------------------
    def emit(self, instruction: Instruction) -> int:
        """Append a raw instruction; return its pc."""
        return self.program.append(instruction)

    def label(self, name: Optional[str] = None) -> str:
        """Bind a (possibly fresh) label to the next instruction."""
        if name is None:
            name = self.fresh_label("L")
        self.program.add_label(name)
        return name

    def fresh_label(self, prefix: str) -> str:
        """Return a unique label name with *prefix*."""
        self._label_counter += 1
        return f"{prefix}_{self._label_counter}"

    # ------------------------------------------------------------------
    # Common opcodes.
    # ------------------------------------------------------------------
    def op(self, opcode: Opcode, dest: Reg, *srcs: Union[Operand, int, float]) -> int:
        """Emit any compute opcode, coercing bare numbers to immediates."""
        coerced = tuple(Imm(s) if isinstance(s, (int, float)) else s for s in srcs)
        return self.emit(alu(opcode, dest, *coerced))

    def li(self, dest: Reg, value: Number) -> int:
        return self.emit(li(dest, value))

    def mov(self, dest: Reg, src: Operand) -> int:
        return self.op(Opcode.MOV, dest, src)

    def add(self, dest: Reg, a, b) -> int:
        return self.op(Opcode.ADD, dest, a, b)

    def sub(self, dest: Reg, a, b) -> int:
        return self.op(Opcode.SUB, dest, a, b)

    def mul(self, dest: Reg, a, b) -> int:
        return self.op(Opcode.MUL, dest, a, b)

    def fadd(self, dest: Reg, a, b) -> int:
        return self.op(Opcode.FADD, dest, a, b)

    def fmul(self, dest: Reg, a, b) -> int:
        return self.op(Opcode.FMUL, dest, a, b)

    def ld(self, dest: Reg, base: Operand, offset: Union[int, Imm] = 0,
           comment: str = "") -> int:
        return self.emit(load(dest, base, offset, comment=comment))

    def st(self, value: Union[Operand, int, float], base: Operand,
           offset: Union[int, Imm] = 0, comment: str = "") -> int:
        if isinstance(value, (int, float)):
            value = Imm(value)
        return self.emit(store(value, base, offset, comment=comment))

    def jmp(self, target: str) -> int:
        return self.emit(jump(target))

    def br(self, opcode: Opcode, a, b, target: str) -> int:
        a = Imm(a) if isinstance(a, (int, float)) else a
        b = Imm(b) if isinstance(b, (int, float)) else b
        return self.emit(branch(opcode, a, b, target))

    def halt(self) -> int:
        return self.emit(halt())

    def call(self, target: str, link: Reg) -> int:
        """Call the subroutine at *target*, saving the return pc in *link*."""
        return self.emit(
            Instruction(Opcode.JAL, dest=link, srcs=(), target=target)
        )

    def ret(self, link: Reg) -> int:
        """Return through *link* (a JR to the saved pc)."""
        return self.emit(Instruction(Opcode.JR, srcs=(link,)))

    @contextlib.contextmanager
    def subroutine(self, name: str, link: Reg) -> Iterator[None]:
        """Define a subroutine out of the fall-through path.

        Emits a jump over the body, binds *name* to its entry, and
        appends the JR through *link* on exit; call it with
        :meth:`call`.
        """
        skip = self.fresh_label("over")
        self.jmp(skip)
        self.program.add_label(name)
        yield
        self.ret(link)
        self.program.add_label(skip)

    # ------------------------------------------------------------------
    # Structured control flow.
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def loop(self, counter: Union[str, Reg], start: Union[int, Reg],
             stop: Union[int, Reg], step: int = 1) -> Iterator[Reg]:
        """Counted loop: ``for counter in range(start, stop, step)``.

        *stop* may be a register holding the bound.  The loop body runs
        zero times when the range is empty.
        """
        reg = self.reg(counter) if isinstance(counter, str) else counter
        if isinstance(start, Reg):
            self.mov(reg, start)
        else:
            self.li(reg, start)
        top = self.label(self.fresh_label("loop"))
        end = self.fresh_label("endloop")
        bound = stop if isinstance(stop, Reg) else Imm(stop)
        if step > 0:
            self.br(Opcode.BGE, reg, bound, end)
        else:
            self.br(Opcode.BGE, bound, reg, end)
        yield reg
        self.add(reg, reg, step)
        self.jmp(top)
        self.program.add_label(end)

    @contextlib.contextmanager
    def when(self, condition: Opcode, a, b) -> Iterator[None]:
        """Execute the body only when ``condition(a, b)`` holds."""
        try:
            inverse = _INVERSE_BRANCH[condition]
        except KeyError:
            raise ValidationError(f"{condition.value} is not a branch condition") from None
        skip = self.fresh_label("skip")
        self.br(inverse, a, b, skip)
        yield
        self.program.add_label(skip)

    # ------------------------------------------------------------------
    # Finalisation.
    # ------------------------------------------------------------------
    def build(self, validate: bool = True) -> Program:
        """Finish the program (appending HALT if missing) and validate it."""
        if not self.program.instructions or (
            self.program.instructions[-1].opcode is not Opcode.HALT
        ):
            self.halt()
        if validate:
            from .validate import validate_program

            validate_program(self.program)
        return self.program
