"""Region analysis: run splitting, slice tags and self-loops."""

from repro.isa import (
    Imm,
    Opcode,
    Program,
    ProgramBuilder,
    Reg,
    SReg,
    SliceRegion,
    alu,
    branch,
    halt,
    jump,
    li,
    rcmp,
    rtn,
    store,
)
from repro.staticcheck.regions import analyze_regions, describe


def mixed_program() -> Program:
    program = Program("mixed")
    program.append(li(Reg(1), 4))                                # 0 ┐ run
    program.append(alu(Opcode.ADD, Reg(2), Reg(1), Imm(1)))      # 1 ┘
    program.append(branch(Opcode.BEQ, Reg(2), Imm(0), "end"))    # 2 control
    program.append(store(Reg(2), Reg(1), 0))                     # 3 ┐ run
    program.append(alu(Opcode.DIV, Reg(3), Reg(2), Imm(2)))      # 4 ┘
    program.add_label("end", 5)
    program.append(halt())                                       # 5 control
    return program


def test_runs_split_at_control_transfers():
    analysis = analyze_regions(mixed_program())
    # Faulting elements (a store, a trapping DIV) do not split a run.
    assert [(r.start, r.end) for r in analysis.regions] == [(0, 2), (3, 5)]
    assert analysis.batchable_instructions == 4


def test_amnesic_opcodes_break_runs_and_slices_are_tagged():
    program = Program("amnesic")
    program.append(li(Reg(1), 5))                                        # 0
    program.append(rcmp(Reg(2), Reg(1), 0, slice_id=0, target="rs"))     # 1
    program.append(alu(Opcode.ADD, Reg(3), Reg(2), Imm(1)))              # 2
    program.append(halt())                                               # 3
    program.add_label("rs", 4)
    program.append(alu(Opcode.LI, SReg(0), Imm(7)))                      # 4
    program.append(alu(Opcode.ADD, SReg(1), SReg(0), Imm(1)))            # 5
    program.append(rtn(0, SReg(1)))                                      # 6
    program.register_slice(
        SliceRegion(slice_id=0, entry_label="rs", start=4, end=7, load_pc=1)
    )
    analysis = analyze_regions(program)
    spans = {(r.start, r.end): r for r in analysis.regions}
    # RCMP at 1 splits the main region; RTN terminates the slice run.
    assert set(spans) == {(0, 1), (2, 3), (4, 6)}
    assert not spans[(0, 1)].in_slice
    assert spans[(4, 6)].in_slice
    assert spans[(4, 6)].slice_id == 0
    # Coverage counts only runs of length >= 2.
    assert analysis.batchable_instructions == 2
    assert analysis.coverage == 2 / 7
    assert "batchable region" in describe(analysis)


def test_empty_program_has_zero_coverage():
    analysis = analyze_regions(Program("empty"))
    assert analysis.regions == []
    assert analysis.coverage == 0.0
    assert analysis.max_region_length == 0


def test_self_loops_are_proven_and_counted():
    b = ProgramBuilder("loops")
    x, y = b.regs("x", "y")
    with b.loop("i", 0, 4):  # proven: header, body [2, 4), JMP at 4
        b.add(x, x, 1)
    with b.loop("j", 0, 4):  # a trapping DIV may sit in the body
        b.op(Opcode.DIV, y, x, 2)
    with b.loop("k", 0, 4):  # a branch splits the body
        with b.when(Opcode.BNE, x, 0):
            b.add(y, y, 1)
    program = b.build()
    analysis = analyze_regions(program)
    first, second = analysis.loops
    assert (first.header, first.back, first.length) == (1, 4, 4)
    assert (first.body.start, first.body.end) == (2, 4)
    assert (second.header, second.back, second.length) == (6, 9, 4)
    assert program.instructions[second.body.start].opcode is Opcode.DIV
    assert analysis.summary()["loops"] == 2
    assert "2 self-loop(s)" in describe(analysis)


def test_back_edge_must_close_on_its_header():
    program = Program("not-a-loop")
    program.add_label("top", 0)
    program.append(branch(Opcode.BGE, Reg(1), Imm(4), "out"))   # 0
    program.append(alu(Opcode.ADD, Reg(1), Reg(1), Imm(1)))      # 1
    program.append(alu(Opcode.ADD, Reg(2), Reg(2), Imm(1)))      # 2
    program.append(jump("elsewhere"))                            # 3
    program.add_label("elsewhere", 4)
    program.add_label("out", 4)
    program.append(halt())                                       # 4
    assert analyze_regions(program).loops == []
