"""Trace event plumbing."""

from repro.isa import Imm, Opcode, Reg, alu
from repro.machine import Level
from repro.trace import InstructionEvent


def make_event(**overrides):
    base = dict(
        index=3,
        pc=7,
        instruction=alu(Opcode.ADD, Reg(1), Reg(2), Imm(5)),
        operand_values=(2, 5),
        result=7,
    )
    base.update(overrides)
    return InstructionEvent(**base)


def test_event_str_includes_context():
    text = str(make_event(address=0x40, level=Level.L2))
    assert "pc=7" in text
    assert "0x40" in text
    assert "L2" in text


def test_opcode_shortcut():
    assert make_event().opcode is Opcode.ADD
