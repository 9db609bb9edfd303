"""Serializable fuzz-program specifications and their materialisation.

The differential fuzzer does not mutate instruction streams directly.
It works on a :class:`ProgramSpec` — a tiny declarative description of a
loop body made of *statements* (produce a value through an arithmetic
chain, spill it, clobber a register, generate background cache traffic,
reload a slot, fold a loop-carried accumulator).  The spec is the unit
the whole subsystem agrees on:

* the generator (:mod:`repro.fuzz.generator`) draws random specs;
* :func:`materialize` lowers a spec to an executable
  :class:`~repro.isa.program.Program` via
  :class:`~repro.isa.builder.ProgramBuilder`;
* the shrinker (:mod:`repro.fuzz.shrinker`) deletes and simplifies
  statements, not instructions, so counterexamples stay readable;
* the corpus (:mod:`repro.fuzz.corpus`) stores specs as JSON so a
  committed counterexample replays bit-identically forever.

Every construct maps onto a scenario the AMNESIAC compiler and
scheduler must survive: chains become recomputation slices, strided
stores create store-to-load aliasing, clobbers force Hist checkpoints,
read-only-table loads become non-recomputable (checkpoint-load) leaves,
gaps evict lines so probing policies actually fire, carries create
loop-carried dependences with unstable producer templates, and traps
schedule an arithmetic fault for a chosen iteration so execution
backends must keep mid-region fault state classic-exact.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, List, Optional, Tuple, Union

from ..errors import FuzzError
from ..isa.builder import ProgramBuilder
from ..isa.opcodes import Opcode
from ..isa.program import Program

#: Bumped when the spec JSON layout changes incompatibly.
SPEC_FORMAT_VERSION = 1

#: Size of the read-only input table (power of two, so masked indices
#: always land inside it).
RO_WORDS = 64

#: Temp registers a spec may name.  Small on purpose: reuse across
#: statements is what creates clobbering and dependence chains.
TEMP_NAMES = ("t0", "t1", "t2", "t3", "v")

#: Integer opcodes a chain may apply (value-deterministic, never fault
#: with the immediates the generator draws).
CHAIN_OPCODES = {
    "add": Opcode.ADD,
    "sub": Opcode.SUB,
    "mul": Opcode.MUL,
    "xor": Opcode.XOR,
    "or": Opcode.OR,
    "and": Opcode.AND,
    "min": Opcode.MIN,
    "max": Opcode.MAX,
    "shl": Opcode.SHL,
    "shr": Opcode.SHR,
}

ChainOp = Tuple[str, int]


def ro_table() -> List[int]:
    """The deterministic read-only input table every spec shares.

    Values are all non-zero so a scheduler bug that fabricates zeros for
    checkpointed operands is always observable.
    """
    return [(11 + 7 * k) % 4093 + 1 for k in range(RO_WORDS)]


# ----------------------------------------------------------------------
# Statements.
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Produce:
    """``temp = chain(source)`` — the producer of a future spill.

    ``source`` is ``"index"`` (the loop counter), ``"roload"`` (a load
    from the read-only table at ``(i * ro_stride) & mask`` — a
    non-recomputable leaf), or the name of another temp (deepens the
    producer tree).  An empty chain copies the source unchanged, which
    is how the corpus covers trivial one-node slices.
    """

    temp: str
    source: str = "index"
    chain: Tuple[ChainOp, ...] = ()
    ro_stride: int = 1
    kind: str = dataclasses.field(default="produce", init=False)


@dataclasses.dataclass(frozen=True)
class Store:
    """Spill ``temp`` to ``slots[(i * stride + offset) & mask]``.

    ``stride == 0`` is a fixed slot (classic accumulator spill) and
    lowers to a single ST; a non-zero stride walks the slot region and
    aliases with any other statement sharing its address expression.
    """

    temp: str
    offset: int = 0
    stride: int = 0
    kind: str = dataclasses.field(default="store", init=False)


@dataclasses.dataclass(frozen=True)
class Clobber:
    """``temp ^= value`` — kill the live register holding a spilled value.

    Forces the compiler to classify leaf inputs drawn from ``temp`` as
    non-recomputable (Hist) rather than live-register.
    """

    temp: str
    value: int = 0x1234
    kind: str = dataclasses.field(default="clobber", init=False)


@dataclasses.dataclass(frozen=True)
class Gap:
    """``count`` background loads from the read-only table.

    Pollutes the cache hierarchy between a spill and its reload so the
    probing policies (FLC/LLC) see genuine misses and fire.
    """

    count: int = 4
    stride: int = 1
    kind: str = dataclasses.field(default="gap", init=False)


@dataclasses.dataclass(frozen=True)
class Reload:
    """Reload a slot — the load the amnesic compiler may swap for RCMP."""

    offset: int = 0
    stride: int = 0
    temp: str = "v"
    accumulate: bool = True
    kind: str = dataclasses.field(default="reload", init=False)


@dataclasses.dataclass(frozen=True)
class Carry:
    """``temp = op(temp, source)`` — a loop-carried dependence.

    ``temp`` survives iterations, so a spill of it has a producer
    template that grows with the trip count (template-stability stress).
    """

    temp: str
    source: str
    op: str = "add"
    kind: str = dataclasses.field(default="carry", init=False)


@dataclasses.dataclass(frozen=True)
class Trap:
    """``temp = temp / (i - at)`` — an arithmetic fault on iteration ``at``.

    Lowers to ``SUB a, i, at; DIV temp, temp, a``, so the divisor hits
    zero exactly when the loop counter reaches ``at``.  This is the
    batching-adversarial statement: the DIV sits inside a straight-line
    run that a region-batching backend fuses, so it must fault
    mid-region with classic-exact instruction counts and pc.  ``at >=
    iterations`` never fires — the spec runs clean, through fused code
    that holds a trapping element.
    """

    temp: str
    at: int = 0
    kind: str = dataclasses.field(default="trap", init=False)


Statement = Union[Produce, Store, Clobber, Gap, Reload, Carry, Trap]

_STATEMENT_TYPES: Dict[str, type] = {
    "produce": Produce,
    "store": Store,
    "clobber": Clobber,
    "gap": Gap,
    "reload": Reload,
    "carry": Carry,
    "trap": Trap,
}


# ----------------------------------------------------------------------
# The spec itself.
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class ProgramSpec:
    """A complete fuzz program: one counted loop over *statements*."""

    name: str
    iterations: int
    slot_words: int
    statements: Tuple[Statement, ...]
    emit_output: bool = True
    seed: Optional[int] = None  # provenance only; not used to materialise

    # ------------------------------------------------------------------
    # Serialisation.
    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, object]:
        return {
            "format": SPEC_FORMAT_VERSION,
            "name": self.name,
            "iterations": self.iterations,
            "slot_words": self.slot_words,
            "emit_output": self.emit_output,
            "seed": self.seed,
            "statements": [_statement_to_json(s) for s in self.statements],
        }

    @classmethod
    def from_json(cls, payload: object) -> "ProgramSpec":
        if not isinstance(payload, dict):
            raise FuzzError(f"spec is a JSON {type(payload).__name__}")
        version = payload.get("format")
        if version != SPEC_FORMAT_VERSION:
            raise FuzzError(
                f"unsupported spec format {version!r} "
                f"(expected {SPEC_FORMAT_VERSION})"
            )
        try:
            name = str(payload["name"])
            iterations = int(payload["iterations"])
            slot_words = int(payload["slot_words"])
            statements = payload["statements"]
        except KeyError as error:
            raise FuzzError(f"spec has no {error.args[0]!r} field") from None
        except (TypeError, ValueError) as error:
            raise FuzzError(f"bad spec field: {error}") from None
        if not isinstance(statements, list):
            raise FuzzError("spec statements are not a JSON list")
        return cls(
            name=name,
            iterations=iterations,
            slot_words=slot_words,
            emit_output=bool(payload.get("emit_output", True)),
            seed=payload.get("seed"),
            statements=tuple(_statement_from_json(s) for s in statements),
        )

    def digest(self) -> str:
        """Short content hash — stable corpus entry / dedupe identity.

        The name and seed are provenance, not behaviour, so they do not
        participate: a shrunk spec that reproduces an existing corpus
        entry is recognised as a duplicate.
        """
        payload = self.to_json()
        payload.pop("name")
        payload.pop("seed")
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]

    def replace(self, **changes) -> "ProgramSpec":
        return dataclasses.replace(self, **changes)


def _statement_to_json(statement: Statement) -> Dict[str, object]:
    payload = dataclasses.asdict(statement)
    if isinstance(statement, Produce):
        payload["chain"] = [list(op) for op in statement.chain]
    return payload


def _statement_from_json(payload: object) -> Statement:
    if not isinstance(payload, dict):
        raise FuzzError(f"statement is a JSON {type(payload).__name__}")
    data = dict(payload)
    kind = data.pop("kind", None)
    try:
        statement_type = _STATEMENT_TYPES[kind]
    except (KeyError, TypeError):
        raise FuzzError(f"unknown statement kind {kind!r}") from None
    try:
        if statement_type is Produce and "chain" in data:
            data["chain"] = tuple((str(op), int(imm)) for op, imm in data["chain"])
        return statement_type(**data)
    except (TypeError, ValueError) as error:
        raise FuzzError(f"bad {kind} statement: {error}") from None


# ----------------------------------------------------------------------
# Validation.
# ----------------------------------------------------------------------
def validate_spec(spec: ProgramSpec) -> None:
    """Raise :class:`FuzzError` if *spec* cannot be materialised."""
    if spec.iterations < 1:
        raise FuzzError(f"iterations must be >= 1, got {spec.iterations}")
    if spec.slot_words < 1 or spec.slot_words & (spec.slot_words - 1):
        raise FuzzError(
            f"slot_words must be a positive power of two, got {spec.slot_words}"
        )
    if not spec.statements:
        raise FuzzError("spec has no statements")
    for statement in spec.statements:
        _validate_statement(statement, spec)


def _validate_statement(statement: Statement, spec: ProgramSpec) -> None:
    if isinstance(statement, Produce):
        if statement.temp not in TEMP_NAMES:
            raise FuzzError(f"unknown temp {statement.temp!r}")
        if statement.source not in ("index", "roload") and (
            statement.source not in TEMP_NAMES
        ):
            raise FuzzError(f"unknown produce source {statement.source!r}")
        for op, imm in statement.chain:
            if op not in CHAIN_OPCODES:
                raise FuzzError(f"unknown chain opcode {op!r}")
            if op in ("div", "rem") and imm == 0:
                raise FuzzError("zero divisor in chain")
    elif isinstance(statement, (Store, Reload)):
        temp = statement.temp
        if temp not in TEMP_NAMES:
            raise FuzzError(f"unknown temp {temp!r}")
        if not 0 <= statement.offset < spec.slot_words:
            raise FuzzError(
                f"slot offset {statement.offset} outside [0, {spec.slot_words})"
            )
        if statement.stride < 0:
            raise FuzzError(f"negative stride {statement.stride}")
    elif isinstance(statement, Clobber):
        if statement.temp not in TEMP_NAMES:
            raise FuzzError(f"unknown temp {statement.temp!r}")
    elif isinstance(statement, Gap):
        if statement.count < 1:
            raise FuzzError(f"gap count must be >= 1, got {statement.count}")
    elif isinstance(statement, Carry):
        if statement.temp not in TEMP_NAMES or statement.source not in TEMP_NAMES:
            raise FuzzError(
                f"carry registers must be temps, got "
                f"{statement.temp!r}/{statement.source!r}"
            )
        if statement.op not in CHAIN_OPCODES:
            raise FuzzError(f"unknown carry opcode {statement.op!r}")
    elif isinstance(statement, Trap):
        if statement.temp not in TEMP_NAMES:
            raise FuzzError(f"unknown temp {statement.temp!r}")
        if statement.at < 0:
            raise FuzzError(f"trap iteration must be >= 0, got {statement.at}")
    else:  # pragma: no cover - the union is exhaustive
        raise FuzzError(f"unknown statement {statement!r}")


# ----------------------------------------------------------------------
# Materialisation.
# ----------------------------------------------------------------------
def _uses_ro_table(spec: ProgramSpec) -> bool:
    return any(
        isinstance(s, Gap) or (isinstance(s, Produce) and s.source == "roload")
        for s in spec.statements
    )


def _uses_sink(spec: ProgramSpec) -> bool:
    return any(
        isinstance(s, Gap) or (isinstance(s, Reload) and s.accumulate)
        for s in spec.statements
    )


def _temps_read_before_written(spec: ProgramSpec) -> List[str]:
    """Temps whose first use in the loop body is a read.

    These must be initialised before the loop so the first iteration
    computes over defined values (and so every iteration is uniform).
    """
    written: set = set()
    needs_init: List[str] = []

    def read(temp: str) -> None:
        if temp not in written and temp not in needs_init:
            needs_init.append(temp)

    for statement in spec.statements:
        if isinstance(statement, Produce):
            if statement.source in TEMP_NAMES:
                read(statement.source)
            written.add(statement.temp)
        elif isinstance(statement, Store):
            read(statement.temp)
        elif isinstance(statement, Clobber):
            read(statement.temp)
            written.add(statement.temp)
        elif isinstance(statement, Reload):
            written.add(statement.temp)
        elif isinstance(statement, Carry):
            read(statement.temp)
            read(statement.source)
            written.add(statement.temp)
        elif isinstance(statement, Trap):
            read(statement.temp)
            written.add(statement.temp)
    return needs_init


def materialize(spec: ProgramSpec) -> Program:
    """Lower *spec* to an executable program (validates first)."""
    validate_spec(spec)
    b = ProgramBuilder(spec.name)
    uses_ro = _uses_ro_table(spec)
    uses_sink = _uses_sink(spec)
    mask = spec.slot_words - 1

    ro_base = b.data(ro_table(), read_only=True) if uses_ro else None
    slots = b.reserve(spec.slot_words)

    r_slot = b.reg("slot")
    b.li(r_slot, slots)
    if uses_ro:
        r_bg = b.reg("bg")
        b.li(r_bg, ro_base)
    if uses_sink:
        sink = b.reg("sink")
        b.li(sink, 0)
    for index, temp in enumerate(_temps_read_before_written(spec)):
        b.li(b.reg(temp), index + 1)

    def slot_address(offset: int, stride: int):
        """Emit the slot address computation; returns (base, imm offset)."""
        if stride == 0:
            return r_slot, offset & mask
        a = b.reg("a")
        b.mul(a, i, stride)
        if offset:
            b.add(a, a, offset)
        b.op(Opcode.AND, a, a, mask)
        b.add(a, a, r_slot)
        return a, 0

    with b.loop("i", 0, spec.iterations) as i:
        for statement in spec.statements:
            if isinstance(statement, Produce):
                t = b.reg(statement.temp)
                chain = list(statement.chain)
                if statement.source == "index":
                    if chain:
                        op, imm = chain.pop(0)
                        b.op(CHAIN_OPCODES[op], t, i, imm)
                    else:
                        b.mov(t, i)
                elif statement.source == "roload":
                    if statement.ro_stride == 0:
                        b.ld(t, r_bg, comment="read-only input")
                    else:
                        a = b.reg("a")
                        b.mul(a, i, statement.ro_stride)
                        b.op(Opcode.AND, a, a, RO_WORDS - 1)
                        b.add(a, a, r_bg)
                        b.ld(t, a, comment="read-only input")
                else:
                    source = b.reg(statement.source)
                    if chain:
                        op, imm = chain.pop(0)
                        b.op(CHAIN_OPCODES[op], t, source, imm)
                    else:
                        b.mov(t, source)
                for op, imm in chain:
                    b.op(CHAIN_OPCODES[op], t, t, imm)
            elif isinstance(statement, Store):
                base, offset = slot_address(statement.offset, statement.stride)
                b.st(b.reg(statement.temp), base, offset)
            elif isinstance(statement, Clobber):
                t = b.reg(statement.temp)
                b.op(Opcode.XOR, t, t, statement.value)
            elif isinstance(statement, Gap):
                g = b.reg("g")
                with b.loop("j", 0, statement.count) as j:
                    b.mul(g, j, statement.stride)
                    b.add(g, g, i)
                    b.op(Opcode.AND, g, g, RO_WORDS - 1)
                    b.add(g, g, r_bg)
                    b.ld(g, g)
                    b.add(sink, sink, g)
            elif isinstance(statement, Reload):
                base, offset = slot_address(statement.offset, statement.stride)
                t = b.reg(statement.temp)
                b.ld(t, base, offset, comment="reload (swappable)")
                if statement.accumulate:
                    b.add(sink, sink, t)
            elif isinstance(statement, Carry):
                t = b.reg(statement.temp)
                b.op(
                    CHAIN_OPCODES[statement.op], t, t, b.reg(statement.source)
                )
            elif isinstance(statement, Trap):
                t = b.reg(statement.temp)
                a = b.reg("a")
                b.sub(a, i, statement.at)
                b.op(Opcode.DIV, t, t, a)

    if spec.emit_output and uses_sink:
        out = b.reserve(1)
        r_out = b.reg("out")
        b.li(r_out, out)
        b.st(sink, r_out)
    return b.build()
