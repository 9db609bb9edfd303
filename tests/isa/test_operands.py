"""Operand model and assembler-spelling parser."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa import NUM_REGISTERS, HistRef, Imm, Reg, SReg, parse_operand


def test_register_bounds():
    Reg(0)
    Reg(NUM_REGISTERS - 1)
    with pytest.raises(ValueError):
        Reg(NUM_REGISTERS)
    with pytest.raises(ValueError):
        Reg(-1)


def test_sreg_bounds():
    SReg(0)
    with pytest.raises(ValueError):
        SReg(-1)


def test_histref_bounds():
    HistRef(0, 0)
    with pytest.raises(ValueError):
        HistRef(-1, 0)
    with pytest.raises(ValueError):
        HistRef(0, -1)


@given(st.integers(min_value=0, max_value=NUM_REGISTERS - 1))
def test_reg_spelling_roundtrip(index):
    assert parse_operand(str(Reg(index))) == Reg(index)


@given(st.integers(min_value=0, max_value=1000))
def test_sreg_spelling_roundtrip(index):
    assert parse_operand(str(SReg(index))) == SReg(index)


@given(st.integers(min_value=-(2 ** 40), max_value=2 ** 40))
def test_int_immediate_roundtrip(value):
    assert parse_operand(str(Imm(value))) == Imm(value)


@given(
    st.integers(min_value=0, max_value=99),
    st.integers(min_value=0, max_value=9),
)
def test_histref_spelling_roundtrip(leaf, slot):
    assert parse_operand(str(HistRef(leaf, slot))) == HistRef(leaf, slot)


def test_float_immediate_parse():
    parsed = parse_operand("#2.5")
    assert parsed == Imm(2.5)


@pytest.mark.parametrize("text", ["", "x5", "r", "rX", "#", "h1", "h.0"])
def test_unparseable_operands(text):
    with pytest.raises(ValueError):
        parse_operand(text)
