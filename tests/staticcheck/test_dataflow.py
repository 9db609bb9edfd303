"""Reaching definitions: the dataflow analysis the slice-safety rules read."""

from repro.isa import Imm, Opcode, Program, Reg, alu, branch, halt, li
from repro.staticcheck.cfg import build_cfg
from repro.staticcheck.dataflow import ReachingDefinitions


def diamond() -> Program:
    """r1 defined at entry, maybe redefined on one arm."""
    program = Program("diamond")
    program.append(li(Reg(1), 1))                              # 0
    program.append(branch(Opcode.BEQ, Reg(2), Imm(0), "merge"))  # 1
    program.append(li(Reg(1), 2))                              # 2
    program.add_label("merge", 3)
    program.append(alu(Opcode.ADD, Reg(3), Reg(1), Imm(0)))    # 3
    program.append(halt())                                     # 4
    return program


def test_reaching_definitions_merge_at_join():
    reaching = ReachingDefinitions(build_cfg(diamond()))
    assert reaching.defs_reaching(3, 1) == frozenset({0, 2})
    # Inside the taken arm only the entry def of r1 is visible.
    assert reaching.defs_reaching(2, 1) == frozenset({0})
    # r2 is never written: only the synthetic entry value reaches.
    assert reaching.defs_reaching(1, 2) == frozenset()
