"""The JSONL trace format stays readable across trace representations.

``fixtures/call_spill.jsonl`` was written by ``dump_trace`` before the
dependence trace became columnar.  It must reload, re-dump byte for
byte, and compile to the same binary as a live profile of the same
program.  The program calls a subroutine every iteration, so the file
also pins how JAL link-register writes reload.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.compiler import compile_amnesic
from repro.energy import EPITable, EnergyModel
from repro.isa import Opcode, ProgramBuilder
from repro.trace import profile_program
from repro.trace.io import dump_trace, load_trace

from ..conftest import tiny_config

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "call_spill.jsonl"


def build_call_spill_kernel():
    """Spill/reload loop whose spilled value is derived in a subroutine."""
    b = ProgramBuilder("call_spill")
    background = b.data(list(range(64)), read_only=True)
    slots = b.reserve(16)
    r_bg, r_slot, seed, t, addr, gap_v, v, sink, link = b.regs(
        "bg", "slot", "seed", "t", "addr", "gapv", "v", "sink", "link"
    )
    b.li(r_bg, background)
    b.li(r_slot, slots)
    b.li(sink, 0)
    with b.loop("i", 0, 10) as i:
        b.mul(seed, i, 2654435761)
        b.call("mix", link)
        b.mul(addr, i, 4)
        b.op(Opcode.AND, addr, addr, 15)
        b.add(addr, addr, r_slot)
        b.st(t, addr)
        with b.loop("j", 0, 6) as j:
            b.add(gap_v, j, i)
            b.op(Opcode.AND, gap_v, gap_v, 63)
            b.add(gap_v, gap_v, r_bg)
            b.ld(gap_v, gap_v)
            b.add(sink, sink, gap_v)
        b.ld(v, addr)
        b.add(sink, sink, v)
    b.halt()
    with b.subroutine("mix", link):
        b.op(Opcode.XOR, t, seed, 37)
        b.op(Opcode.MUL, t, t, 41)
    return b.build()


def model():
    return EnergyModel(epi=EPITable.default(), config=tiny_config())


def test_fixture_reloads_and_redumps_byte_identically(tmp_path):
    tracker = load_trace(FIXTURE)
    assert len(tracker) > 0
    again = dump_trace(tracker, tmp_path / "again.jsonl")
    assert again.read_text() == FIXTURE.read_text()


def test_fixture_matches_a_live_profile():
    program = build_call_spill_kernel()
    live = profile_program(program, model())
    reloaded = load_trace(FIXTURE)
    assert len(reloaded) == len(live.dependence)
    for index in range(len(reloaded)):
        assert reloaded.record(index) == live.dependence.record(index)


def test_fixture_compiles_to_the_live_binary():
    program = build_call_spill_kernel()
    energy = model()
    live = profile_program(program, energy)
    stored = dataclasses.replace(live, dependence=load_trace(FIXTURE))
    from_live = compile_amnesic(program, energy, profile=live)
    from_file = compile_amnesic(program, energy, profile=stored)
    assert from_live.rslices, "the fixture program should compile to slices"
    assert from_file.binary.program.instructions == from_live.binary.program.instructions
    assert from_file.swapped_load_pcs == from_live.swapped_load_pcs
    assert from_file.rejected == from_live.rejected


def test_inconsistent_trace_is_rejected(tmp_path):
    """A record whose producer disagrees with the trace is refused."""
    lines = FIXTURE.read_text().splitlines()
    for number, line in enumerate(lines):
        payload = json.loads(line)
        producers = [d for d in payload["srcs"] if d[0] == "r" and d[1]]
        if producers:
            producers[0][1] -= 1
            lines[number] = json.dumps(payload)
            break
    broken = tmp_path / "broken.jsonl"
    broken.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="does not re-derive"):
        load_trace(broken)
