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
* **dynamic columns**, one entry per retired instruction: pc and
  result, plus address, service level and producing store for memory
  operations;
* **indexes** built while tracing: each pc's dynamic instances and each
  register's writers, both in execution order.

Register producers and operand values are never stored: the producer of
a source register at dynamic index *t* is the last writer of that
register before *t*, a bisection of its writer list, and the value it
read is that producer's recorded result (0 when it has none: ``r0``, or
a register nothing wrote yet).  An immediate's value is in the static
table.  :meth:`DependenceTracker.operands` and
:meth:`DependenceTracker.record` (the classic one-record-per-instruction
view, :class:`DynRecord`) build on demand from these pieces.

Columns fill two ways.  The classic CPU hands the tracker each retired
instruction's fields through :meth:`DependenceTracker.retire`, and
:func:`~repro.trace.io.load_trace` replays each stored record through
the same method.  Generated code that retires instructions itself (the
fast backend's traced per-pc functions and fused loops) appends each
instruction's own columns instead, through
:meth:`DependenceTracker.columns` and
:meth:`DependenceTracker.pc_columns`; both ways build the same tracker.
"""

from __future__ import annotations

import dataclasses
from array import array
from bisect import bisect_left
from collections import Counter
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..isa.instructions import Instruction
from ..isa.opcodes import Opcode
from ..isa.operands import Imm, Reg

Value = Union[int, float]

#: Source descriptor tags.
SRC_IMM = "i"  # ('i', value)
SRC_REG = "r"  # ('r', producer_index_or_None, register_index, value_or_None)

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


class Columns(NamedTuple):
    """The append side of a tracker's dynamic columns.

    Retiring dynamic instruction *index* appends its pc and result;
    *index* to its pc's instances and its destination's writers (see
    :meth:`DependenceTracker.pc_columns`); and, for a memory access,
    *index*, the address, the service level and the producing store
    (``no_store`` for a store, or a load of an address no store wrote),
    after which a store sets ``last_store[address] = index``.
    """

    pc: Callable[[int], None]
    result: Callable[[Optional[Value]], None]
    mem_index: Callable[[int], None]
    mem_address: Callable[[int], None]
    mem_level: Callable[[object], None]
    mem_producer: Callable[[int], None]
    last_store: Dict[int, int]
    no_store: int


class DependenceTracker:
    """Tracer building the dynamic dependence graph of a classic run.

    Filled one :meth:`retire` call per instruction by the classic CPU,
    or through its append side (:meth:`columns`, :meth:`pc_columns`) by
    the fast backend's traced code, where a pc's per-pc function and
    the fused loop that holds it append to the one set of columns its
    single :meth:`pc_columns` call gave.
    """

    def __init__(self) -> None:
        self._static: Dict[int, PcInfo] = {}
        self._pcs = array("q")
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
    # Retirement.
    # ------------------------------------------------------------------
    def retire(
        self,
        index: int,
        pc: int,
        instruction: Instruction,
        result: Optional[Value] = None,
        address: Optional[int] = None,
        level: object = None,
    ) -> None:
        """Append dynamic instruction *index*, retired at *pc*.

        *result* is the value it wrote; a memory access adds its
        effective *address* and the *level* that serviced it.  The
        values it read are not passed: :meth:`operands` derives them.
        """
        info = self._static.get(pc)
        if info is None:
            info = self._learn(PcInfo.of(pc, instruction))
        # The columns are indexed by dynamic instruction number; the CPU
        # numbers retirements densely so append keeps them aligned.
        assert index == len(self._pcs), "trace indices out of sync"
        self._pcs.append(pc)
        self._results.append(result)
        info.instances.append(index)
        if info.dest is not None:
            self._writers[info.dest].append(index)
        if address is not None:
            self._mem_index.append(index)
            self._mem_address.append(address)
            self._mem_level.append(level)
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
    # Append side: retirement from generated code.
    # ------------------------------------------------------------------
    def columns(self) -> Columns:
        """The bound appends :meth:`retire` makes (see :class:`Columns`)."""
        return Columns(
            self._pcs.append,
            self._results.append,
            self._mem_index.append,
            self._mem_address.append,
            self._mem_level.append,
            self._mem_producer.append,
            self._last_store,
            _NO_STORE,
        )

    def pc_columns(
        self, pc: int, instruction: Instruction
    ) -> Tuple[Callable[[], PcInfo], array, Optional[array]]:
        """``(learn, instances, writers)`` of the static instruction at *pc*.

        *instances* is the pc's instance column and *writers* its
        destination register's writer column (None when it writes no
        register).  ``learn()`` enters the pc in the static table; call
        it as the pc's first instance retires, while *instances* is
        still empty, so that :meth:`static_pcs` keeps first-retirement
        order and :meth:`pc_info` stays None for a pc that never
        retires.  A pc that already retired keeps its entry.  Ask once
        per pc and share the answer among all the code that retires the
        pc: before the pc retires, every call builds a fresh entry, and
        learning a second one replaces the first, instances and all.
        """
        info = self._static.get(pc) or PcInfo.of(pc, instruction)
        writers = None
        if info.dest is not None:
            writers = self._writers.setdefault(info.dest, array("q"))
        return partial(self._learn, info), info.instances, writers

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
        """The values dynamic instruction *index* read, one per source.

        An immediate reads its static value; a register reads the result
        of its last writer before *index*, or 0 when it has none.
        """
        srcs = self._static[self._pcs[index]].srcs
        return tuple(
            payload if tag == SRC_IMM else self._read(payload, index)[1]
            for tag, payload in srcs
        )

    def _read(self, reg: int, index: int) -> Tuple[Optional[int], Value]:
        """``(producer, value)`` of register *reg* as *index* read it."""
        producer = None if reg == 0 else last_before(self.writers(reg), index)
        return producer, 0 if producer is None else self._results[producer]

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
        """The record of dynamic instruction *index*.

        A load's or a store's address operands carry no value.
        """
        if index < 0:
            index += len(self._pcs)
        pc = self._pcs[index]
        info = self._static[pc]
        valued = 0 if info.is_load else 1 if info.is_store else len(info.srcs)
        srcs: List[SourceDescriptor] = []
        for position, (tag, payload) in enumerate(info.srcs):
            if tag == SRC_IMM:
                srcs.append((SRC_IMM, payload))
                continue
            producer, value = self._read(payload, index)
            if position >= valued:
                value = None
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
