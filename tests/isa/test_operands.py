"""Operand model: register, scratch and history-reference bounds."""

import pytest

from repro.isa import NUM_REGISTERS, HistRef, Reg, SReg


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
