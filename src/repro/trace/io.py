"""Trace persistence: dump and reload dependence traces as JSONL.

A profiled run's dependence graph can be saved for offline analysis or
regression fixtures and reloaded into a fully functional
:class:`~repro.trace.dependence.DependenceTracker` — the compiler can
then run against the stored trace without re-executing the program.
The format is one :class:`~repro.trace.dependence.DynRecord` per line,
whatever the tracker's in-memory layout.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, Union

from ..isa.instructions import Instruction
from ..isa.opcodes import Opcode
from ..isa.operands import Imm, Reg
from .dependence import SRC_IMM, DependenceTracker, DynRecord


def dump_trace(tracker: DependenceTracker, path: Union[str, pathlib.Path]) -> pathlib.Path:
    """Write one JSON object per dynamic record to *path*."""
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w") as handle:
        for index in range(len(tracker)):
            handle.write(json.dumps(_encode(tracker.record(index))) + "\n")
    return target


def load_trace(path: Union[str, pathlib.Path]) -> DependenceTracker:
    """Reload a JSONL trace into a tracker.

    Each record is replayed into the tracker as the retirement that
    produced it, and must re-derive from the records before it: its
    register producers are the last writers of its source registers, the
    values it read are their results, and a load's producing store is
    the last store to its address.  A file that does not raises
    :class:`ValueError`.  Service levels are not stored, so a reloaded
    trace cannot rebuild a :class:`~repro.trace.profile.LoadProfiler`.
    """
    tracker = DependenceTracker()
    instructions: Dict[int, Instruction] = {}
    with pathlib.Path(path).open() as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = _decode(json.loads(line))
            if record.index != len(tracker):
                raise ValueError(
                    f"record {record.index} found at position {len(tracker)}"
                )
            instruction = instructions.get(record.pc)
            if instruction is None:
                instruction = instructions[record.pc] = _instruction_of(record)
            tracker.retire(
                record.index, record.pc, instruction, record.result, record.address
            )
            if tracker.record(record.index) != record:
                raise ValueError(
                    f"record {record.index} does not re-derive from the trace"
                )
    return tracker


def _instruction_of(record: DynRecord) -> Instruction:
    """The static instruction a record describes (enough to retrace it)."""
    return Instruction(
        record.opcode,
        dest=Reg(record.dest_reg) if record.dest_reg is not None else None,
        srcs=tuple(
            Imm(d[1]) if d[0] == SRC_IMM else Reg(d[2]) for d in record.srcs
        ),
    )


def _encode(record: DynRecord) -> dict:
    return {
        "i": record.index,
        "pc": record.pc,
        "op": record.opcode.value,
        "srcs": [list(descriptor) for descriptor in record.srcs],
        "dest": record.dest_reg,
        "res": record.result,
        "addr": record.address,
        "memp": record.mem_producer,
    }


def _decode(payload: dict) -> DynRecord:
    return DynRecord(
        index=payload["i"],
        pc=payload["pc"],
        opcode=Opcode(payload["op"]),
        srcs=tuple(tuple(descriptor) for descriptor in payload["srcs"]),
        dest_reg=payload["dest"],
        result=payload["res"],
        address=payload["addr"],
        mem_producer=payload["memp"],
    )
