"""Dynamic data-dependence tracking.

:class:`DependenceTracker` is a tracer that reconstructs the dynamic
dataflow of a classic execution: for every retired instruction it can
say which earlier dynamic instruction produced each register source
operand, and for every load, which store last wrote the loaded address.
The amnesic compiler's slice formation (paper section 3.1.1, "dependency
analysis to identify the producer instructions of v") consumes this
graph through :mod:`repro.compiler.producers`.

The trace is columnar so that million-instruction profile runs stay
cheap to record and to query:

* a **static table** (:class:`PcInfo`), filled the first time each pc
  retires: opcode, destination register, source kinds and immediates;
* **dynamic columns**, one entry per retired instruction: pc, the
  event's operand-value tuple (by reference) and result, plus address,
  service level and producing store for memory operations;
* **indexes** built while tracing: each pc's dynamic instances and each
  register's writers, both in execution order.

Register producers are never stored: the producer of a source register
at dynamic index *t* is the last writer of that register before *t*, a
bisection of its writer list.  :meth:`DependenceTracker.record` builds
the classic one-record-per-instruction view (:class:`DynRecord`) on
demand from these pieces.
"""

from __future__ import annotations

import dataclasses
from array import array
from bisect import bisect_left
from collections import Counter
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..isa.instructions import Instruction
from ..isa.opcodes import Opcode
from ..isa.operands import Imm, Reg
from .events import InstructionEvent

Value = Union[int, float]

#: Source descriptor tags.
SRC_IMM = "i"  # ('i', value)
SRC_REG = "r"  # ('r', producer_index_or_None, register_index, value)

SourceDescriptor = Tuple

#: Sentinel for "no producing store" in the memory-producer column.
_NO_STORE = -1

_EMPTY: Sequence[int] = array("q")


@dataclasses.dataclass(frozen=True)
class DynRecord:
    """One dynamic instruction in the dependence graph."""

    index: int
    pc: int
    opcode: Opcode
    srcs: Tuple[SourceDescriptor, ...]
    dest_reg: Optional[int]
    result: Optional[Value]
    address: Optional[int] = None  # LD/ST effective address
    mem_producer: Optional[int] = None  # for LD: index of producing ST

    @property
    def is_load(self) -> bool:
        return self.opcode is Opcode.LD

    @property
    def is_store(self) -> bool:
        return self.opcode is Opcode.ST


class PcInfo:
    """Static facts of one pc, plus the index of its dynamic instances.

    ``srcs`` holds one ``(SRC_IMM, value)`` or ``(SRC_REG, register)``
    pair per source operand.  ``writes_value`` marks instructions whose
    destination write is a computed or loaded value (compute ops and
    loads); other register writers (JAL's link register) still produce
    register dataflow but carry no recomputable value.
    """

    __slots__ = (
        "pc", "opcode", "dest", "srcs", "is_load", "is_store", "is_compute",
        "writes_value", "instances",
    )

    def __init__(
        self,
        pc: int,
        opcode: Opcode,
        dest: Optional[int],
        srcs: Tuple[Tuple[str, Any], ...],
    ) -> None:
        self.pc = pc
        self.opcode = opcode
        self.dest = dest
        self.srcs = srcs
        self.is_load = opcode is Opcode.LD
        self.is_store = opcode is Opcode.ST
        self.is_compute = opcode.is_compute
        self.writes_value = dest is not None and (self.is_compute or self.is_load)
        #: Dynamic indices of this pc, in execution order.
        self.instances: array = array("q")

    @classmethod
    def of(cls, pc: int, instruction: Instruction) -> "PcInfo":
        dest = instruction.dest
        dest_reg = dest.index if isinstance(dest, Reg) and dest.index != 0 else None
        srcs: List[Tuple[str, Any]] = []
        for operand in instruction.srcs:
            if isinstance(operand, Imm):
                srcs.append((SRC_IMM, operand.value))
            elif isinstance(operand, Reg):
                srcs.append((SRC_REG, operand.index))
            else:  # SReg/HistRef never appear in classic (profiled) runs
                srcs.append((SRC_IMM, None))
        return cls(pc, instruction.opcode, dest_reg, tuple(srcs))


def last_before(indices: Sequence[int], t: int) -> Optional[int]:
    """The last entry of the ascending *indices* strictly below *t*."""
    k = bisect_left(indices, t)
    return indices[k - 1] if k else None


class DependenceTracker:
    """Tracer building the dynamic dependence graph of a classic run."""

    def __init__(self) -> None:
        self._static: Dict[int, PcInfo] = {}
        self._pcs = array("q")
        self._operands: List[Tuple[Value, ...]] = []
        self._results: List[Optional[Value]] = []
        #: register -> dynamic indices of every instruction writing it.
        self._writers: Dict[int, array] = {}
        #: Registers with at least one writer that is not ``writes_value``.
        self._control_written: Set[int] = set()
        self._value_writers: Dict[int, Tuple[int, Sequence[int]]] = {}
        # Memory-operation columns, aligned with each other.
        self._mem_index = array("q")
        self._mem_address = array("q")
        self._mem_level: list = []
        self._mem_producer = array("q")
        self._last_store: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Tracer interface.
    # ------------------------------------------------------------------
    def on_instruction(self, event: InstructionEvent) -> None:
        pc = event.pc
        info = self._static.get(pc)
        if info is None:
            info = self._learn(PcInfo.of(pc, event.instruction))
        index = len(self._pcs)
        # The columns are indexed by dynamic instruction number; the CPU
        # numbers events densely so append keeps them aligned.
        assert event.index == index, "trace indices out of sync"
        self._pcs.append(pc)
        self._operands.append(event.operand_values)
        self._results.append(event.result)
        info.instances.append(index)
        if info.dest is not None:
            self._writers[info.dest].append(index)
        address = event.address
        if address is not None:
            self._mem_index.append(index)
            self._mem_address.append(address)
            self._mem_level.append(event.level)
            if info.is_store:
                self._mem_producer.append(_NO_STORE)
                self._last_store[address] = index
            elif info.is_load:
                self._mem_producer.append(self._last_store.get(address, _NO_STORE))
            else:
                self._mem_producer.append(_NO_STORE)

    def _learn(self, info: PcInfo) -> PcInfo:
        self._static[info.pc] = info
        if info.dest is not None:
            self._writers.setdefault(info.dest, array("q"))
            if not info.writes_value:
                self._control_written.add(info.dest)
        return info

    # ------------------------------------------------------------------
    # Columnar queries.
    # ------------------------------------------------------------------
    def pc_info(self, pc: int) -> Optional[PcInfo]:
        """Static facts of *pc*, or None if it never retired."""
        return self._static.get(pc)

    def static_pcs(self) -> List[PcInfo]:
        """Every retired pc's static entry, in first-retirement order."""
        return list(self._static.values())

    def writers(self, reg: int) -> Sequence[int]:
        """Dynamic indices of every instruction that wrote *reg*."""
        return self._writers.get(reg, _EMPTY)

    def value_writers(self, reg: int) -> Sequence[int]:
        """Writers of *reg* that are compute ops or loads (no link writes)."""
        writers = self.writers(reg)
        if reg not in self._control_written:
            return writers
        cached = self._value_writers.get(reg)
        if cached is None or cached[0] != len(self._pcs):
            static, pcs = self._static, self._pcs
            kept = array("q", (i for i in writers if static[pcs[i]].writes_value))
            cached = (len(self._pcs), kept)
            self._value_writers[reg] = cached
        return cached[1]

    def pc_at(self, index: int) -> int:
        """The pc of dynamic instruction *index*."""
        return self._pcs[index]

    def result(self, index: int) -> Optional[Value]:
        """Result of dynamic instruction *index* (None if it had none)."""
        return self._results[index]

    def operands(self, index: int) -> Tuple[Value, ...]:
        """Operand values dynamic instruction *index* read, as traced."""
        return self._operands[index]

    def execution_counts(self) -> Counter:
        """Dynamic execution count per pc, in first-retirement order."""
        return Counter({pc: len(info.instances) for pc, info in self._static.items()})

    def memory_accesses(
        self,
    ) -> Iterator[Tuple[int, PcInfo, int, object, Optional[int]]]:
        """``(index, pc info, address, level, producing store)`` per access.

        Covers every instruction that reported an effective address (LD
        and ST in classic runs), in execution order.  The producing
        store is only ever set for loads.
        """
        static, pcs = self._static, self._pcs
        for index, address, level, producer in zip(
            self._mem_index, self._mem_address, self._mem_level, self._mem_producer
        ):
            yield (
                index,
                static[pcs[index]],
                address,
                level,
                None if producer == _NO_STORE else producer,
            )

    # ------------------------------------------------------------------
    # Record view.
    # ------------------------------------------------------------------
    def record(self, index: int) -> DynRecord:
        """The record of dynamic instruction *index*."""
        if index < 0:
            index += len(self._pcs)
        pc = self._pcs[index]
        info = self._static[pc]
        values = self._operands[index]
        srcs: List[SourceDescriptor] = []
        for position, (tag, payload) in enumerate(info.srcs):
            if tag == SRC_IMM:
                srcs.append((SRC_IMM, payload))
                continue
            producer = (
                None if payload == 0 else last_before(self.writers(payload), index)
            )
            value = values[position] if position < len(values) else None
            srcs.append((SRC_REG, producer, payload, value))
        address = mem_producer = None
        slot = bisect_left(self._mem_index, index)
        if slot < len(self._mem_index) and self._mem_index[slot] == index:
            address = self._mem_address[slot]
            if info.is_load and self._mem_producer[slot] != _NO_STORE:
                mem_producer = self._mem_producer[slot]
        return DynRecord(
            index=index,
            pc=pc,
            opcode=info.opcode,
            srcs=tuple(srcs),
            dest_reg=info.dest,
            result=self._results[index],
            address=address,
            mem_producer=mem_producer,
        )

    @property
    def records(self) -> "RecordView":
        """Read-only, lazily built sequence of every :class:`DynRecord`."""
        return RecordView(self)

    def loads_at(self, pc: int) -> List[DynRecord]:
        """All dynamic instances of the static load at *pc*."""
        info = self._static.get(pc)
        if info is None or not info.is_load:
            return []
        return [self.record(index) for index in info.instances]

    def dynamic_loads(self) -> List[DynRecord]:
        """All dynamic load records, in execution order."""
        return [
            self.record(index)
            for index, info, _, _, _ in self.memory_accesses()
            if info.is_load
        ]

    def __len__(self) -> int:
        return len(self._pcs)


class RecordView(Sequence[DynRecord]):
    """The trace as a sequence of records, each built when accessed."""

    def __init__(self, tracker: DependenceTracker) -> None:
        self._tracker = tracker

    def __len__(self) -> int:
        return len(self._tracker)

    def __getitem__(self, index: int) -> DynRecord:  # type: ignore[override]
        if not -len(self) <= index < len(self):
            raise IndexError("record index out of range")
        return self._tracker.record(index)
