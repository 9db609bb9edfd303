"""Dynamic trace event records emitted by the CPU interpreters.

A tracer is any object with an ``on_instruction(event)`` method; the
classic CPU invokes it after retiring each dynamic instruction.  Events
carry enough information (operand values, results, effective addresses,
service levels) for the dependence tracker to reconstruct the full
dynamic dataflow, and the load profile and value locality built from
it, without re-executing the program.

The fast backend builds no events for a tracer that also offers trace
columns (the :class:`~repro.trace.dependence.DependenceTracker`): its
traced per-pc functions append each instruction's columns directly,
and only the pcs it leaves to classic handlers (``HALT``, thunks) call
``on_instruction``.  A tracer without columns runs on the classic loop
and receives the classic event stream.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple, Union

from typing import TYPE_CHECKING

from ..isa.instructions import Instruction

if TYPE_CHECKING:  # avoid a circular import: machine.cpu emits these events
    from ..machine.config import Level

Value = Union[int, float]


@dataclasses.dataclass(frozen=True)
class InstructionEvent:
    """One retired dynamic instruction."""

    index: int  # dynamic instruction number, 0-based
    pc: int
    instruction: Instruction
    operand_values: Tuple[Value, ...] = ()
    result: Optional[Value] = None
    address: Optional[int] = None  # effective address (LD/ST/RCMP)
    level: Optional["Level"] = None  # servicing level (performed LD/ST)
    taken: Optional[bool] = None  # branch outcome

    @property
    def opcode(self):
        return self.instruction.opcode

    def __str__(self) -> str:
        extras = []
        if self.address is not None:
            extras.append(f"@{self.address:#x}")
        if self.level is not None:
            extras.append(self.level.value)
        if self.result is not None:
            extras.append(f"= {self.result!r}")
        suffix = " ".join(extras)
        return f"[{self.index}] pc={self.pc} {self.instruction} {suffix}".rstrip()
