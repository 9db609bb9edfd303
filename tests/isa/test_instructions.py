"""Instruction constructors and structural checks."""

import pytest

from repro.isa import (
    Imm,
    Instruction,
    Opcode,
    Reg,
    SReg,
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


def test_alu_constructor():
    instruction = alu(Opcode.ADD, Reg(1), Reg(2), Imm(3))
    assert instruction.dest == Reg(1)
    assert instruction.srcs == (Reg(2), Imm(3))


def test_alu_rejects_non_compute():
    with pytest.raises(ValueError):
        alu(Opcode.LD, Reg(1), Reg(2), Imm(0))


def test_arity_enforced():
    with pytest.raises(ValueError):
        Instruction(Opcode.ADD, dest=Reg(1), srcs=(Reg(2),))


def test_load_store_constructors():
    ld = load(Reg(1), Reg(2), 4)
    assert ld.opcode is Opcode.LD
    assert ld.srcs == (Reg(2), Imm(4))
    st_ = store(Reg(1), Reg(2), 4)
    assert st_.opcode is Opcode.ST
    assert st_.dest is None


def test_branch_constructor():
    br = branch(Opcode.BEQ, Reg(1), Imm(0), "target")
    assert br.target == "target"
    with pytest.raises(ValueError):
        branch(Opcode.ADD, Reg(1), Reg(2), "x")


def test_amnesic_requires_slice_id():
    with pytest.raises(ValueError):
        Instruction(Opcode.RTN, dest=SReg(0))


def test_rcmp_inherits_load_operands():
    """Paper 3.1.2: RCMP inherits all the load's operands."""
    instruction = rcmp(Reg(3), Reg(4), 8, slice_id=2, target="rslice_2")
    assert instruction.dest == Reg(3)
    assert instruction.srcs == (Reg(4), Imm(8))
    assert instruction.slice_id == 2
    assert instruction.target == "rslice_2"


def test_rec_carries_checkpoint_operands():
    instruction = rec(1, 0, (Reg(5), Reg(6)))
    assert instruction.leaf_id == 0
    assert instruction.srcs == (Reg(5), Reg(6))


def test_rtn_names_result_sreg():
    instruction = rtn(1, SReg(7))
    assert instruction.dest == SReg(7)
    assert instruction.is_slice_instruction


def test_leaf_flag():
    leaf = alu(Opcode.ADD, SReg(1), Imm(1), Imm(2), leaf_id=0)
    assert leaf.is_leaf
    non_leaf = alu(Opcode.ADD, SReg(1), SReg(0), Imm(2))
    assert not non_leaf.is_leaf


def test_register_queries():
    instruction = alu(Opcode.ADD, Reg(1), Reg(2), Imm(5))
    assert instruction.register_def() == Reg(1)
    assert store(Reg(1), Reg(2), 0).register_def() is None


def test_str_renders_everything():
    text = str(rcmp(Reg(3), Reg(4), 8, slice_id=2, target="rslice_2"))
    assert "rcmp" in text and "r3" in text and "slice=2" in text


def test_simple_constructors():
    assert halt().opcode is Opcode.HALT
    assert jump("x").target == "x"
    assert li(Reg(1), 5).srcs == (Imm(5),)
