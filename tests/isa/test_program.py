"""Program container behaviour."""

import pytest

from repro.errors import ValidationError
from repro.isa import (
    Imm,
    Opcode,
    Program,
    Reg,
    SliceRegion,
    alu,
    halt,
    li,
    load,
)


def make_program():
    program = Program("test")
    program.append(li(Reg(1), 5))
    program.add_label("loop")
    program.append(load(Reg(2), Reg(1), 0))
    program.append(alu(Opcode.ADD, Reg(3), Reg(2), Imm(1)))
    program.append(halt())
    return program


def test_labels_resolve():
    program = make_program()
    assert program.pc_of("loop") == 1


def test_duplicate_label_rejected():
    program = make_program()
    with pytest.raises(ValidationError):
        program.add_label("loop")


def test_undefined_label_faults():
    program = make_program()
    with pytest.raises(ValidationError):
        program.pc_of("missing")


def test_static_loads_excludes_slices():
    program = make_program()
    assert program.static_loads() == [1]
    program.register_slice(
        SliceRegion(slice_id=0, entry_label="loop", start=1, end=3, load_pc=0)
    )
    assert program.static_loads() == []


def test_duplicate_slice_rejected():
    program = make_program()
    region = SliceRegion(slice_id=0, entry_label="loop", start=1, end=3, load_pc=0)
    program.register_slice(region)
    with pytest.raises(ValidationError):
        program.register_slice(region)


def test_slice_containing():
    program = make_program()
    region = SliceRegion(slice_id=0, entry_label="loop", start=1, end=3, load_pc=0)
    program.register_slice(region)
    assert program.slice_containing(1) is region
    assert program.slice_containing(2) is region
    assert program.slice_containing(0) is None
    assert program.slice_containing(3) is None


def test_data_segment_read_only_ranges():
    program = make_program()
    program.data.place(100, [1, 2, 3], read_only=True)
    program.data.place(200, [4, 5], read_only=False)
    assert program.data.is_read_only(101)
    assert not program.data.is_read_only(200)
    copied = program.data.copy()
    assert copied.cells == program.data.cells
    assert copied.read_only == program.data.read_only


def test_render_includes_labels_and_pcs():
    text = make_program().render()
    assert "loop:" in text
    assert "ld r2" in text


def test_len_and_iter():
    program = make_program()
    assert len(program) == 4
    assert len(list(program)) == 4
