"""The fast execution backend: one description per opcode, six renderings.

:class:`BatchedExecutionMixin` replaces the classic fetch/decode/dispatch
loop of :class:`~repro.machine.cpu.CPU` with a predecoded program.  Each
opcode family the fast path handles (compute, ``LD``, ``ST``, branches,
``JMP``, ``JAL``, ``JR``, ``NOP``, ``REC``, ``HALT``, and ``RCMP`` per
probe depth) is *described once*: a tuple of Python source lines that
mirrors the classic handler statement for statement — same value semantics,
same fault points and messages, same energy charges in the same order,
same cache/LRU transitions.  The lines are written against
placeholders (``$s0`` for the first operand, ``$gl`` for the
load-energy accumulator, ``$tt`` for modeled time, ``$pc`` ...) plus
four hook lines (``dest``, ``emit``, ``mark``, ``goto``), and one
description renders six ways:

* **per-pc functions** — one zero-argument function per static
  instruction that returns the next pc (``-1`` after ``HALT``), so a
  straight-line stretch runs with no branch/halt checks.  Each is a
  one-element unit: its pc ``_s``, fall-through pc ``_nx``, registers,
  immediates and target bind as default parameters, and accumulators
  are charged where they live;
* **traced per-pc functions** — the same lines, where the ``emit`` hook
  and the ``traced`` lines append the instruction's own dependence-trace
  columns (pc, result, its pc's instances, its destination's writers;
  address, service level and producing store for ``LD``/``ST``)
  through the tracker's append side
  (:meth:`~repro.trace.dependence.DependenceTracker.columns`), at the
  point the classic handler calls ``_emit``, so no event is built;
* **fused regions** — every statically proven straight-line run outside
  a slice (see :mod:`repro.staticcheck.regions`) concatenated into one
  generated function, with accumulators hoisted into locals and
  written back by the function's one ``finally`` (see
  :func:`_fused_frame`); the ``mark`` of each element that can fault
  (``LD``, ``ST``, trapping compute) records its offset for the fault
  path;
* **fused loops** — statically proven self-loops (a branch header, one
  batchable body region, a ``JMP`` back): header, body and loop-back
  rendered as one pass inside a ``while`` loop, where the header's
  taken ``goto`` leaves the loop; accumulators are hoisted once per
  loop entry and the budget is checked once per pass;
* **traced fused loops** — the same loops, where each element keeps its
  ``traced`` lines and its ``emit`` hook appends its columns as a
  traced per-pc function does, into the same columns, at trace index
  ``_i0`` plus its offset;
* **fused slices** — the compute description again, fed by Hist and
  register operands, with scratch registers in locals: one generated
  function per RSlice.  Values and charges stay in locals until the
  last value; a traversal that raises has touched nothing and reruns
  its slice on the interpreted reference, which faults as classic
  does.

One plan, one binder, code by shape.  A program's first untraced decode
builds its *decode plan* (:class:`_Plan`): each pc planned once as a
one-element unit, kept as its key part and own values (see
:func:`_element`), and, on first demand, each fused region, loop and
slice, whose elements come from the same :func:`_element`.  All
generated code is planned by shape: a structural key, taken before
anything renders (per element its family, variant, operand kinds and
the pattern of its registers, immediates and target; per pc also what
varies per CPU: traced or not, an ``RCMP``'s probe depth and
``verify``), picks the code, which renders and compiles once per
process (:data:`_SHAPES`).  Everything a program owns (pcs, register
numbers, immediates, targets, read-only bounds, Hist keys, IBuff pcs)
binds as a parameter, so code objects name no program, and a unit's
start pc is its ``_s`` default wherever its source reads it.  Every
decode binds the plan to its own CPU through :func:`_bound`, from one
environment of CPU facts: registers, accounts, model costs, Hist, SFile
fit, fire tables, slice traversals and trace columns.

``RCMP`` renders per pc for the run's paper policy by its probe depth:
the one decision inline (see :data:`_DECISION`: the load's residence,
the tag probes of the depth, and the slice's fire table, which the
policy's ``fires_at`` fills), a direct call into the slice's
traversal, bound at decode, and the inherited load rendered from the
``LD`` description.

Fork at the first ``RCMP``.  Until a binary's first ``RCMP`` every
amnesic run of it under one energy model does the same work, so the
plan keeps one snapshot per model (:class:`_Fork`), taken by the
binary's second run at its first ``RCMP`` dispatch, and every later
run whose budget reaches past it starts from a copy (see
:func:`_fork`).  Classic runs never fork, and a restored run is held
to an unforked classic one like any other.

The contract every rendering honours:

* **Semantics** live in :mod:`repro.isa.semantics` and
  :class:`~repro.machine.memory.Memory`.  Compute renders a guarded
  inline form from :data:`_INLINE`, bit-exact whenever its type guard
  holds, and otherwise calls the evaluator the classic handler calls.
* **Timing/energy** live in :class:`~repro.energy.account.EnergyAccount`
  and :class:`~repro.machine.hierarchy.MemoryHierarchy`.  Only the L1
  hit is inlined; every miss runs
  :meth:`~repro.machine.hierarchy.MemoryHierarchy._service_miss`, the
  classic walk itself, so hit/miss/eviction/write-back accounting
  cannot diverge.
* **Observability**: a run with a timeline attached or under the
  hot-loop profiler uses the classic loop (timelines sample mid-run
  state per instruction; the profiler samples the classic dispatch),
  one check in :meth:`BatchedExecutionMixin._run_loop`.  A traced run
  (a classic CPU profiling into a
  :class:`~repro.trace.dependence.DependenceTracker`) keeps the
  predecoded loop with traced per-pc functions and fuses only its
  proven self-loops, which retire nearly all of a profile's
  instructions; straight-line regions, run too few times in one
  profile to repay their compiles, stay per pc (see
  :meth:`_Plan.fused_for`).  The tracer is fixed at CPU construction,
  so the variant is chosen at decode time; amnesic CPUs take none.
  ``RTN``, statically odd instructions, and ``RCMP`` under a live
  telemetry session (per-RCMP decision records) or for a policy that
  is not a paper policy run the classic handler, which retires through
  ``CPU._emit`` into the same columns, in order.

Instruction counting (``RunStats.dynamic_instructions`` /
``by_category``) is deferred to per-pc, per-region and per-loop-pass
hit counts and flushed when the loop exits, faults included, preserving
the classic count-before-execute order; ``CPU._dynamic_index`` stays
live because budgets, timelines and trace indices read it mid-run.
"""

from __future__ import annotations

import builtins
import re
import weakref
from collections import OrderedDict
from functools import lru_cache, partial
from types import CodeType, FunctionType
from typing import NamedTuple, Optional

from ..energy.account import (
    GROUP_AMNESIC,
    GROUP_HIST,
    GROUP_LOAD,
    GROUP_NONMEM,
    GROUP_STORE,
)
from ..errors import (
    ArithmeticFault,
    ExecutionLimitExceeded,
    MachineFault,
    MemoryFault,
    RecomputationMismatch,
)
from ..isa.opcodes import _OPCODE_CATEGORY, Category, Opcode
from ..isa.operands import HistRef, Imm, Reg, SReg
from ..isa.semantics import _EVALUATORS, wrap_int64
from ..telemetry.runtime import get_telemetry
from .config import Level
from .cpu import CPU

# ----------------------------------------------------------------------
# The descriptions.
# ----------------------------------------------------------------------

#: Signed 64-bit bounds, inlined as literals in generated code.
_I64_MAX = (1 << 63) - 1
_I64_MIN = -(1 << 63)

#: Guarded inline forms of the compute opcodes, shared by every
#: rendering: ``(operand type, ranged, wraps, expression)``.  Each is
#: bit-exact with the evaluator whenever every runtime operand has the
#: named type (``None``: any type):
#:
#: * wrapping int ops satisfy ``wrap(a OP b) == wrap(wrap(a) OP wrap(b))``
#:   for *all* Python ints (``+ - *`` distribute over mod 2**64; the
#:   bitwise ops and ``<<`` depend only on the operands' low 64 bits), so
#:   only the result is range-checked;
#: * ranged int ops are exact only when both operands are already in
#:   signed-64 range, so the guard checks the operands and the result
#:   never needs wrapping (``MIN``/``MAX`` mirror CPython's
#:   first-argument-wins tie-breaking);
#: * float ops are exact when both operands already are floats.
_INLINE = {
    Opcode.ADD: ("int", False, True, "{0} + {1}"),
    Opcode.SUB: ("int", False, True, "{0} - {1}"),
    Opcode.MUL: ("int", False, True, "{0} * {1}"),
    Opcode.AND: ("int", False, True, "{0} & {1}"),
    Opcode.OR: ("int", False, True, "{0} | {1}"),
    Opcode.XOR: ("int", False, True, "{0} ^ {1}"),
    Opcode.SHL: ("int", False, True, "{0} << ({1} & 63)"),
    Opcode.SHR: ("int", True, False, "{0} >> ({1} & 63)"),
    Opcode.SLT: ("int", True, False, "1 if {0} < {1} else 0"),
    Opcode.SLE: ("int", True, False, "1 if {0} <= {1} else 0"),
    Opcode.MIN: ("int", True, False, "{1} if {1} < {0} else {0}"),
    Opcode.MAX: ("int", True, False, "{1} if {1} > {0} else {0}"),
    Opcode.FADD: ("float", False, False, "{0} + {1}"),
    Opcode.FSUB: ("float", False, False, "{0} - {1}"),
    Opcode.FMUL: ("float", False, False, "{0} * {1}"),
    Opcode.SEQ: (None, False, False, "1 if {0} == {1} else 0"),
    Opcode.SNE: (None, False, False, "1 if {0} != {1} else 0"),
    Opcode.MOV: (None, False, False, "{0}"),
    Opcode.LI: (None, False, False, "{0}"),
}

#: Branch conditions, spelled exactly as ``isa.semantics`` evaluates them.
_BRANCH_OPS = {
    Opcode.BEQ: "==",
    Opcode.BNE: "!=",
    Opcode.BLT: "<",
    Opcode.BGE: ">=",
}

#: Compute opcodes whose evaluator can raise a MachineFault; their
#: description marks a fault point, and the call is wrapped to re-raise
#: the fault tagged with the faulting pc.
_FAULTABLE_COMPUTE = frozenset(
    {Opcode.DIV, Opcode.REM, Opcode.FDIV, Opcode.FSQRT}
)


def _address(base, offset):
    """Lines computing the effective address ``_a`` (``effective_address``).

    A float meeting an int beyond the double range takes FADD's sum: the
    int converts to +-inf (see :mod:`repro.isa.semantics`).
    """
    return (
        "try:",
        f"    _a = {base} + {offset}",
        "except OverflowError:",
        f"    _a = _fadd({base}, {offset})",
        "if isinstance(_a, float):",
        "    if not _a.is_integer():",
        "        raise _MF(f'non-integer effective address {_a}', pc=$pc)",
        "    _a = int(_a)",
    )


#: ``Memory.read`` of ``_a`` into ``_x``.
_READ = (
    "try:",
    "    _x = _cells[_a]",
    "except KeyError:",
    "    raise _MemF(f'read of unmapped address {_a:#x}') from None",
)

#: The L1 set holding ``_a`` (the inlined half of ``MemoryHierarchy.load``).
_L1_SET = ("_ln = _a >> _shift", "_cs = _l1sets[_ln % _nsets]", "if _ln in _cs:")

#: Per-family descriptions.  Plain strings are source lines; tuples are
#: ``(tag, text, *fields)``: ``dest`` writes the destination register,
#: ``emit`` retires the instruction (its text and fields are what the
#: instruction retires into the trace: result, "" for none, then
#: effective address and service level), ``mark`` records a fault
#: point, ``goto`` transfers control to the pc its text names, and any
#: other tag keeps the line only when the rendering sets that flag
#: (``traced`` lines finish a traced retirement).  A hook's leading
#: spaces indent the lines it stands for.
_FAMILIES = {
    "ld": (
        ("mark", ""),
        *_address("$s0", "$s1"),
        *_READ,
        *_L1_SET,
        "    $h1 += 1",
        "    _cs.move_to_end(_ln)",
        "    $lb1 += 1",
        ("traced", "    _lv = _L1"),
        "    $gl += _l1le",
        "    $tt += _l1lt",
        "else:",
        "    $m1 += 1",
        "    _lv = _smiss(_a, False)",
        "    _lbl[_lv] += 1",
        "    _me, _mt = _ldc[_lv]",
        "    $gl += _me",
        "    $tt += _mt",
        "$ldn += 1",
        ("dest", "_x"),
        ("emit", "_x", "_a", "_lv"),
        ("traced", "_tmp(_ls.get(_a, _nos))"),
    ),
    "st": (
        ("mark", ""),
        "_x = $s0",
        *_address("$s1", "$s2"),
        ("ro", "if $ro:"),
        ("ro", "    raise _MemF(f'write to read-only address {_a:#x}')"),
        "_cells[_a] = _x",
        *_L1_SET,
        "    $h1 += 1",
        "    _cs[_ln] = True",
        "    _cs.move_to_end(_ln)",
        "    $sb1 += 1",
        ("traced", "    _lv = _L1"),
        "    $gs += _l1se",
        "    $tt += _l1st",
        "else:",
        "    $m1 += 1",
        "    _lv = _smiss(_a, True)",
        "    _sbl[_lv] += 1",
        "    _me, _mt = _stc[_lv]",
        "    $gs += _me",
        "    $tt += _mt",
        "$stn += 1",
        ("emit", "", "_a", "_lv"),
        ("traced", "_tmp(_nos)"),
        ("traced", "_ls[_a] = _ix"),
    ),
    "branch": (
        "_k = $s0 $cmp $s1",
        "$gn += $e",
        "$tt += $t",
        ("emit", ""),
        "if _k:",
        "    _st.branches_taken += 1",
        ("goto", "    $tg"),
    ),
    "jmp": (
        ("emit", ""),
        "$gn += $e",
        "$tt += $t",
        ("goto", "$tg"),
    ),
    "jal": (
        ("dest", "$nx"),
        ("emit", "$nx"),
        "$gn += $e",
        "$tt += $t",
        ("goto", "$tg"),
    ),
    "jr": (
        "_x = $s0",
        "if not isinstance(_x, int) or not 0 <= _x < _lim:",
        "    raise _MF(f'jump-register {_ins} to invalid pc {_x!r} '",
        "              f'(valid pcs are 0..{_lim - 1})', pc=$pc)",
        ("emit", ""),
        "$gn += $e",
        "$tt += $t",
        ("goto", "_x"),
    ),
    "nop": (
        ("emit", ""),
        "$gn += $e",
        "$tt += $t",
    ),
    "rec": (
        "_v = ($srcs)",
        "_rec($sid, $lid, _v)",
        "_st.hist_writes += 1",
        "$ga += $e",
        "$tt += $t",
        ("emit", ""),
    ),
    "halt": (
        ("emit", ""),
        "_cpu.pc = $pc",
        "_cpu.halted = True",
        ("goto", "-1"),
    ),
}

#: Families whose per-pc function falls through to ``pc + 1``.
_FALLTHROUGH = frozenset({"compute", "ld", "st", "branch", "nop", "rec", "rcmp"})

#: Operand counts the fixed-shape families read.
_ARITY = {"ld": 2, "st": 3, "branch": 2, "jr": 1, "rcmp": 2, "halt": 0}

#: Families whose ``dest`` hook writes an architectural register.
_WRITES_DEST = frozenset({"compute", "ld", "jal", "rcmp"})


def _read_only_test(ranges):
    """``Memory.is_read_only(_a)`` over *ranges*, ``(lo, hi)`` source pairs."""
    return " or ".join(f"{lo} <= _a < {hi}" for lo, hi in ranges) or "False"


#: The scheduler's one decision (paper section 3.3.1), from ``_a``: the
#: load's residence into ``_rl`` (``MemoryHierarchy.residence``), the
#: tag probes of the policy's depth, and the slice's fire table at that
#: residence (``_ft1``/``_ft2``/``_ftm``) into ``_f``.  A ``(depth,
#: line)`` pair is a probe line that depths of at least *depth* keep:
#: depth 1 probes L1, depth 2 probes L2 too on an L1 miss.  Probes count
#: in the tag-probe stats and leave LRU state alone.
_DECISION = (
    "_ln = _a >> _shift",
    (1, "_l1h.probes += 1"),
    "if _ln in _l1sets[_ln % _nsets]:",
    "    _rl = _L1",
    "else:",
    (2, "    _l2h.probes += 1"),
    "    _ln = _a >> _shift2",
    "    _rl = _L2 if _ln in _l2sets[_ln % _nsets2] else _MEM",
    "_f = _ft1 if _rl is _L1 else _ft2 if _rl is _L2 else _ftm",
)


@lru_cache(maxsize=None)
def _rcmp_description(depth, verify):
    """RCMP for one probe depth: ``AmnesicCPU._execute_rcmp`` inline.

    Same order as the classic handler: count, address, RCMP charge,
    decision, Hist/SFile readiness (``_ok``: the slice's scratch demand
    fits; ``_hk``: its checkpoint keys), probe charge, the slice's
    traversal ``_sc``, residence count and ``verify``; otherwise the
    fallback or skip count, the probe charge after a fire, and the
    inherited load — the LD description itself after its mark and
    address lines.  A probing paper policy fires only where every probe
    of its depth missed, so a fire pays the whole probe
    (``_p1``/``_p2``).
    """
    address = _address("$s0", "$s1")
    load = _FAMILIES["ld"]
    decide = tuple(
        line if type(line) is str else line[1]
        for line in _DECISION
        if type(line) is str or line[0] <= depth
    )
    charge = (f"$ga += _p{depth}e", f"$tt += _p{depth}t") if depth else ()
    check = ()
    if verify:
        check = (
            *_READ,
            "if _v != _x:",
            "    raise _RM($sid, expected=_x, actual=_v, pc=$pc)",
        )
    fired = (
        "_st.recomputations_fired += 1",
        "_sll[_rl] += 1",
        "_fired.add($sid)",
        *check,
    )
    return (
        "_st.rcmp_encountered += 1",
        *address,
        "$ga += _rce",
        "$tt += _rct",
        *decide,
        "if _f:",
        "    if _ok and _hent.keys() >= _hk:",
        *("        " + line for line in charge),
        "        try:",
        "            _v = _sc()",
        "        except _AF:",
        "            _st.recomputation_aborts += 1",
        "        else:",
        *("            " + line for line in fired),
        ("dest", "            _v"),
        ("emit", "            "),
        "            return $nx",
        "    _st.recomputation_fallbacks += 1",
        *("    " + line for line in charge),
        "else:",
        "    _st.recomputations_skipped += 1",
        # By position: the address block and the read both hold "try:".
        *load[1 + len(address):],
    )

#: Families a fused region may contain (the region analyzer admits no
#: control transfer and no amnesic opcode).
_FUSABLE = frozenset({"compute", "ld", "st", "nop"})


@lru_cache(maxsize=None)
def _compute_description(opcode, kinds):
    """The compute family for one opcode and operand-kind tuple.

    A kind is ``"rt"`` for a value known only at run time (read once
    into ``_y<n>`` and type-guarded) or the kind of a constant operand
    (see :func:`_const_kind`), which reads its name unguarded.  The
    inline form runs when its guard holds and the evaluator otherwise;
    the charge is tagged ``time`` so concurrent-offload slices can hide
    latency.
    A trapping opcode leads with its fault ``mark``, as ``LD``/``ST`` do.
    """
    args = [f"_y{n}" if kind == "rt" else f"$s{n}" for n, kind in enumerate(kinds)]
    lines = [f"_y{n} = $s{n}" for n, kind in enumerate(kinds) if kind == "rt"]
    call = [f"_x = $ev({', '.join(args)})"]
    if opcode in _FAULTABLE_COMPUTE:
        lines.insert(0, ("mark", ""))
        call = [
            "try:",
            "    " + call[0],
            "except _MF as _f:",
            "    raise type(_f)(str(_f), pc=$pc) from None",
        ]
    inline = _inline(opcode, kinds, args)
    if inline is None:
        lines += call
    elif inline[0]:
        guard, body = inline
        lines.append(f"if {guard}:")
        lines += ["    " + line for line in body]
        lines.append("else:")
        lines += ["    " + line for line in call]
    else:
        lines += inline[1]
    return (
        *lines,
        ("dest", "_x"),
        "$gn += $e",
        ("time", "$tt += $t"),
        ("emit", "_x"),
    )


def _inline(opcode, kinds, args):
    """``(guard, lines)`` of the inline form, or None when it cannot apply."""
    form = _INLINE.get(opcode)
    if form is None:
        return None
    kind, ranged, wraps, template = form
    if len(args) != (2 if "{1}" in template else 1):
        return None
    guards = []
    for arg, operand in zip(args, kinds):
        if operand == "rt":
            if kind is not None:
                guards.append(f"type({arg}) is {kind}")
                if ranged:
                    guards.append(f"{_I64_MIN} <= {arg} <= {_I64_MAX}")
        elif kind == "int":
            if operand != "int" and (ranged or operand != "big"):
                return None
        elif kind == "float" and operand != "float":
            return None
    lines = [f"_x = {template.format(*args)}"]
    if wraps:
        lines += [f"if _x > {_I64_MAX} or _x < {_I64_MIN}:", "    _x = _wi(_x)"]
    return " and ".join(guards), lines


def _const_kind(value):
    """Operand kind of a constant: in-range int, out-of-range int, float."""
    if type(value) is int:
        return "int" if _I64_MIN <= value <= _I64_MAX else "big"
    return "float" if type(value) is float else "other"


def _description(family, variant, kinds):
    if family == "compute":
        return _compute_description(variant, kinds)
    if family == "rcmp":
        return _rcmp_description(*variant)
    return _FAMILIES[family]


# ----------------------------------------------------------------------
# Rendering.
# ----------------------------------------------------------------------

#: Accumulator placeholder -> (home, hoisted local, counts).  Per-pc
#: functions charge the home directly; fused regions and slices keep a
#: local and write it back on every exit.  Float accumulators load and
#: store the home, so additions happen in classic order on the running
#: value; counts start at zero and add their delta, because
#: ``_service_miss`` updates other fields of the same stats objects.
_ACCUMULATORS = {
    "tt": ("_ac._time_ns", "_tt", False),
    "gn": ("_eg[_GN]", "_gn", False),
    "gl": ("_eg[_GL]", "_gl", False),
    "gs": ("_eg[_GS]", "_gs", False),
    "ga": ("_eg[_GA]", "_ga", False),
    "gh": ("_eg[_GH]", "_gh", False),
    "h1": ("_l1h.hits", "_h1", True),
    "m1": ("_l1h.misses", "_m1", True),
    "lb1": ("_lbl[_L1]", "_lb1", True),
    "sb1": ("_sbl[_L1]", "_sb1", True),
    "ldn": ("_st.loads_performed", "_ldn", True),
    "stn": ("_st.stores_performed", "_stn", True),
    "hn": ("_st.hist_reads", "_hn", True),
    "hrd": ("_hst.reads", "_hrd", True),
    "ih": ("_ibs.hits", "_ih", True),
}
_AT_HOME = {key: home for key, (home, _, _) in _ACCUMULATORS.items()}
_HOISTED = {key: local for key, (_, local, _) in _ACCUMULATORS.items()}

_PLACEHOLDER = re.compile(r"\$(\w+)")
#: Generated code names its bindings and locals with a leading ``_``;
#: every character but a letter, digit, ``_`` or ``.`` separates names.
_SEPARATORS = {
    code: " " for code in range(128) if not (chr(code).isalnum() or chr(code) in "_.")
}


@lru_cache(maxsize=None)
def _formats(items):
    """The parsed form of one description.

    Returns its items as ``(tag, %-format, field %-formats)`` triples
    (tag None when plain) and the placeholders it uses.
    """
    out = []
    texts = []
    for item in items:
        tag, text, *fields = item if type(item) is tuple else (None, item)
        formats = [
            _PLACEHOLDER.sub(r"%(\1)s", part.replace("%", "%%"))
            for part in (text, *fields)
        ]
        out.append((tag, formats[0], tuple(formats[1:])))
        texts += (text, *fields)
    return tuple(out), frozenset(_PLACEHOLDER.findall("\n".join(texts)))


def _render(items, subs, flags, hooks):
    """Substitute one description into source lines for one rendering.

    *flags* names the tagged lines to keep; *hooks* maps a hook tag to a
    function from its substituted text and fields to the lines it
    stands for (a hook the rendering does not define renders as
    nothing).
    """
    lines = []
    for tag, fmt, fields in _formats(items)[0]:
        text = fmt % subs
        if tag is None or tag in flags:
            lines.append(text)
        elif tag in hooks:
            body = text.lstrip(" ")
            pad = text[: len(text) - len(body)]
            values = [field % subs for field in fields]
            lines.extend(pad + line for line in hooks[tag](body, *values))
    return lines


def _hoist(keys):
    """Prologue and write-back lines for the accumulators in *keys*."""
    prologue, writeback = [], []
    for key, (home, local, counts) in _ACCUMULATORS.items():
        if key in keys:
            prologue.append(f"{local} = 0" if counts else f"{local} = {home}")
            writeback.append(
                f"{home} += {local}" if counts else f"{home} = {local}"
            )
    return prologue, writeback


def _counted_emit(*fields):
    return ["_cpu._dynamic_index += 1"]


def _column_emit(writer, offset=None):
    """The traced ``emit`` hook: append the instruction's trace columns.

    Mirrors ``DependenceTracker.retire`` for one pc: enter the
    pc in the static table at its first retirement, then append pc and
    result, the index to the pc's instances and, when *writer*, to its
    destination register's writers, and for a memory access the index,
    address and level (the description's ``traced`` lines append the
    producing store).  A per-pc function (*offset* None) takes its trace
    index from ``_dynamic_index`` and advances it; the element of a
    fused loop at *offset* retires pc ``_s + offset`` at trace index
    ``_i0 + offset``, leaves ``_dynamic_index`` to the loop's exits and
    appends through its own ``_lrn<offset>``, ``_inst<offset>``,
    ``_ina<offset>`` and ``_wra<offset>``.
    """
    if offset is None:
        index = ["_ix = _cpu._dynamic_index", "_cpu._dynamic_index = _ix + 1"]
        pc, own = "_s", ""
    else:
        index = [f"_ix = _i0 + {offset}" if offset else "_ix = _i0"]
        pc, own = (f"_s + {offset}" if offset else "_s"), offset

    def emit(result, address=None, level=None):
        lines = [
            *index,
            f"if not _inst{own}:",
            f"    _lrn{own}()",
            f"_tpc({pc})",
            f"_tres({result or 'None'})",
            f"_ina{own}(_ix)",
        ]
        if writer:
            lines.append(f"_wra{own}(_ix)")
        if address is not None:
            lines += ["_tmi(_ix)", f"_tma({address})", f"_tml({level})"]
        return lines

    return emit


# ----------------------------------------------------------------------
# Elements: what a unit's shape is taken from.
# ----------------------------------------------------------------------

def _family(opcode):
    """The family that describes *opcode*, None when none does."""
    category = _OPCODE_CATEGORY[opcode]
    if category.is_compute:
        return "compute" if opcode in _EVALUATORS else None
    if category is Category.BRANCH:
        return "branch" if opcode in _BRANCH_OPS else None
    if opcode is Opcode.RCMP:
        return "rcmp"
    return opcode.value if opcode.value in _FAMILIES else None


#: Each opcode's family (see :func:`_family`).
_FAMILY_OF = {opcode: _family(opcode) for opcode in Opcode}

#: Families a per-pc function may run: every described one.
_DESCRIBED = frozenset(family for family in _FAMILY_OF.values() if family)

#: Families whose ``goto`` names a label.
_TARGETED = frozenset({"branch", "jmp", "jal"})


class _Unit:
    """One unit's own values, named while its shape is taken.

    ``values`` holds what the unit binds for itself by parameter name.
    A value named through :meth:`own` gets its name at first use, the
    prefix and how many names the prefix already has, and keeps it, so
    a repeated value reads its first name and two units that use their
    values in the same pattern name them alike: the names are part of
    the shape key, the values are not.  As a shape renders, a fresh
    unit names the recipe entries the shape determines (costs per
    category) the same way (see :func:`_recipe`).
    """

    __slots__ = ("values", "_names", "_counts")

    def __init__(self, **values):
        self.values = values
        self._names = {}
        self._counts = {}

    def own(self, prefix, value, identity=None):
        """The parameter binding *value*, this unit's own (*identity*: its equality)."""
        key = (prefix, value if identity is None else identity)
        name = self._names.get(key)
        if name is None:
            count = self._counts.get(prefix, 0)
            self._counts[prefix] = count + 1
            name = self._names[key] = f"{prefix}{count}"
            self.values[name] = value
        return name


def _immediate(unit, value):
    """An immediate operand's name: one parameter bound to *value*.

    Equal values of one type share it (``repr`` tells ``0.0`` from
    ``-0.0``).
    """
    return unit.own("_k", value, (type(value), repr(value)))


def _element(unit, program, pc, families):
    """Take the shape of the instruction at *pc* as an element of *unit*.

    Binds what the element reads of its own: registers as ``_g<n>``,
    immediates through :func:`_immediate`, a branch or jump target as
    ``_tg<n>``, a store's read-only bounds ``_lo<k>``/``_hi<k>`` from
    the program's data segment (which ``Memory`` only copies), the
    slice and leaf ids of ``REC`` and ``RCMP``, and a ``JR``'s
    instruction (its fault message names it).  Returns the element's
    key part, ``(family, variant, operand kinds, names)``: the variant
    is the opcode, or for a store the number of read-only ranges it
    checks; the names are those its operands, its destination (None:
    none, or r0, whose writes classic drops) and its target read.
    Texts, descriptions, costs and evaluators come from the part when a
    shape renders (:func:`_rendered`).  None when the instruction is not
    of one of *families* or is statically odd (an undefined label, a
    non-register destination, an operand that is neither a register nor
    an immediate), which leaves it on the classic handler, faulting at
    run time exactly as classic does.
    """
    instruction = program.instructions[pc]
    opcode = instruction.opcode
    family = _FAMILY_OF[opcode]
    srcs = instruction.srcs
    if family not in families or len(srcs) != _ARITY.get(family, len(srcs)):
        return None
    compute = family == "compute"
    kinds = []
    refs = []
    for src in srcs:
        if isinstance(src, Reg):
            # r0 is never written, so its slot reads the hardwired zero.
            kinds.append("rt")
            refs.append(unit.own("_g", src.index))
        elif isinstance(src, Imm):
            # Only the compute description reads a constant's kind.
            kinds.append(_const_kind(src.value) if compute else "k")
            refs.append(_immediate(unit, src.value))
        else:
            return None
    dest = None
    if family in _WRITES_DEST:
        if not isinstance(instruction.dest, Reg):
            return None
        if instruction.dest.index:
            dest = unit.own("_g", instruction.dest.index)
    refs.append(dest)
    variant = opcode
    values = unit.values
    if family in _TARGETED:
        target = program.labels.get(instruction.target)
        if target is None:
            return None
        refs.append(unit.own("_tg", target))
    elif family == "st":
        variant = len(program.data.read_only)
        for k, (lo, hi) in enumerate(program.data.read_only):
            values[f"_lo{k}"] = lo
            values[f"_hi{k}"] = hi
    elif family == "rec":
        values["_sid"] = instruction.slice_id
        values["_lid"] = instruction.leaf_id
    elif family == "rcmp":
        values["_sid"] = instruction.slice_id
    elif family == "jr":
        values["_ins"] = instruction
    return family, variant, tuple(kinds), tuple(refs)


def _elements(unit, program, start, end, families):
    """The key parts of pcs ``[start, end)`` in *unit*; None if one won't render."""
    parts = []
    for pc in range(start, end):
        part = _element(unit, program, pc, families)
        if part is None:
            return None
        parts.append(part)
    return parts


def _cost(method, *args):
    """Recipe entries binding a model cost's energy and time."""
    return (
        ("cost", (method, args, "energy_nj")),
        ("cost", (method, args, "time_ns")),
    )


def _costs(shared, method, *args):
    """The parameters of a model cost's energy and time, named in *shared*."""
    energy, time = _cost(method, *args)
    return shared.own("_e", energy), shared.own("_t", time)


def _recipe(values, shared, **entries):
    """A shape's binding recipe (see :func:`_bound`), made as it renders.

    A unit's own *values* bind by name, then the entries its elements
    named in *shared* (a :class:`_Unit` whose values are recipe
    entries), then *entries*.
    """
    recipe = {name: ("own", name) for name in values}
    recipe.update(shared.values)
    recipe.update(entries)
    return recipe


def _rendered(parts, first, shared, keys, hooks=None, home=False, writers=None):
    """Source lines of elements by their key *parts*, the first at offset *first*.

    Descriptions and texts are made from the parts here, when a shape
    renders, and so are the entries the shape determines, named in
    *shared*: costs per category and an evaluator per opcode
    (``_ev_<opcode>``).  A fault names its pc as the unit's start ``_s``
    plus the offset.  Elements of a fused unit charge hoisted
    accumulators and mark each fault point as ``_n``; the one element of
    a per-pc function (*home*) charges the accumulators where they live.
    *hooks* renders control transfers and, untraced, retirement.  Traced
    code passes *writers*, per offset whether that element appends to
    its destination's writers: each element keeps its description's
    ``traced`` lines and retires through its own column ``emit`` hook
    (see :func:`_column_emit`).  Adds the placeholders the elements use
    to *keys* (the accumulators to hoist).
    """
    lines = []
    for offset, (family, variant, kinds, refs) in enumerate(parts, first):
        items = _description(family, variant, kinds)
        placeholders = _formats(items)[1]
        arity = len(kinds)
        subs = dict(
            _AT_HOME if home else _HOISTED,
            pc=f"_s + {offset}" if offset else "_s",
            nx="_nx", sid="_sid", lid="_lid",
            cmp=_BRANCH_OPS.get(variant, ""),
            tg=refs[arity + 1] if len(refs) > arity + 1 else "",
        )
        for n, (kind, ref) in enumerate(zip(kinds, refs)):
            subs[f"s{n}"] = f"_r[{ref}]" if kind == "rt" else ref
        flags = {"time"} if writers is None else {"time", "traced"}
        if "ro" in placeholders:
            subs["ro"] = _read_only_test(
                (f"_lo{k}", f"_hi{k}") for k in range(variant)
            )
            if variant:
                flags.add("ro")
        if "srcs" in placeholders:
            subs["srcs"] = "".join(f"{subs[f's{n}']}, " for n in range(arity))
        if "e" in placeholders:
            cost = ("rec_cost",) if family == "rec" else (
                "compute_cost", _OPCODE_CATEGORY[variant]
            )
            subs["e"], subs["t"] = _costs(shared, *cost)
        if "ev" in placeholders:
            subs["ev"] = name = f"_ev_{variant.value}"
            shared.values[name] = ("value", _EVALUATORS[variant])
        dest = refs[arity]
        element = dict(
            hooks or {},
            dest=lambda value, d=dest: [f"_r[{d}] = {value}"] if d else [],
        )
        if not home:
            element["mark"] = lambda _, mark=f"_n = {offset}": [mark]
        if writers is not None:
            element["emit"] = _column_emit(writers[offset], None if home else offset)
        lines += _render(items, subs, flags, element)
        keys |= placeholders
    return lines


# ----------------------------------------------------------------------
# Shapes.
# ----------------------------------------------------------------------

#: Compiled code by shape key, per-pc and fused alike (see
#: :func:`_shaped`), least recently used first.
_SHAPES = OrderedDict()

#: How many shapes :data:`_SHAPES` keeps.
_SHAPE_LIMIT = 2048


def _shaped(key, render):
    """The :class:`_Shape` of *key*, rendered and compiled on its first demand.

    *render* returns it; the key must determine everything the rendered
    source reads, so every unit of the shape can bind it.
    """
    shape = _SHAPES.get(key)
    if shape is None:
        shape = _SHAPES[key] = render()
        if len(_SHAPES) > _SHAPE_LIMIT:
            _SHAPES.popitem(last=False)
    else:
        _SHAPES.move_to_end(key)
    return shape


def _render_pc(key, values, names):
    """The per-pc function of one shape: a one-element unit.

    *key* is ``("pc", part, traced, writer)``: the element's key part
    (see :func:`_element`; a decoded ``RCMP``'s variant is its ``(probe
    depth, verify)``), whether the function appends trace columns, and
    whether it appends to its destination's writers.  It charges the
    accumulators where they live, marks no fault, returns its ``goto``
    target and, falling through, ``_nx``.  Its recipe binds the names
    in *values* (the pc's own, every pc of the shape has the same) per
    pc, costs per category, evaluators per opcode and every other name
    it reads from the CPU environment (*names*).
    """
    _, part, traced, writer = key
    family, variant, kinds, _ = part
    shared = _Unit()
    hooks = {"emit": _counted_emit, "goto": lambda target: [f"return {target}"]}
    writers = (writer,) if traced else None
    lines = _rendered([part], 0, shared, set(), hooks, home=True, writers=writers)
    if family in _FALLTHROUGH:
        lines.append("return _nx")
    if family == "rcmp":
        depth, verify = variant
        label = f"rcmp{depth}" + ("-verify" if verify else "")
    else:
        label = variant.value if family in ("compute", "branch") else family
    return _planned(
        "_f", ["    " + line for line in lines], _recipe(values, shared),
        f"<fastpath {label}/{len(kinds)}>", names,
    )


#: The globals of every bound function: builtins, and the constants only
#: its fault and overflow paths read (``_fadd`` sums an effective address
#: that overflows).  Everything else it reads is a parameter, a fast
#: local.
_GLOBALS = {
    "__builtins__": builtins,
    "_MF": MachineFault,
    "_MemF": MemoryFault,
    "_AF": ArithmeticFault,
    "_RM": RecomputationMismatch,
    "_wi": wrap_int64,
    "_fadd": _EVALUATORS[Opcode.FADD],
}


def _bound(shape, env, values=None, fns=()):
    """Instantiate the code of *shape* over one CPU's environment *env*.

    Each parameter's recipe entry names where its value comes from:
    ``("name", key)`` the environment's *key*; ``("own", key)`` the
    unit's own value *key* in *values* (a pc's, or a fused unit's);
    ``("cost", (method, args, field))`` a cost of the CPU's energy
    model, priced once per environment (the price is kept in it under
    the entry); ``("fn", key)`` the per-pc function at the pc
    ``values[key]``; ``("value", v)`` the constant *v*.
    """
    defaults = []
    for kind, arg in shape.recipe:
        if kind == "name":
            defaults.append(env[arg])
        elif kind == "own":
            defaults.append(values[arg])
        elif kind == "cost":
            cost = env.get(arg)
            if cost is None:
                method, args, field = arg
                model = env["_model"]
                cost = env[arg] = getattr(getattr(model, method)(*args), field)
            defaults.append(cost)
        elif kind == "fn":
            defaults.append(fns[values[arg]])
        else:
            defaults.append(arg)
    return FunctionType(shape.code, _GLOBALS, shape.code.co_name, tuple(defaults))


def clear_codegen_caches():
    """Drop every compiled shape and decode plan (descriptions changed).

    A plan's forks go with it, so no run resumes from a snapshot that
    other code took.
    """
    _compute_description.cache_clear()
    _rcmp_description.cache_clear()
    _SHAPES.clear()
    _PLANS.clear()


# ----------------------------------------------------------------------
# Per-pc decode.
# ----------------------------------------------------------------------

def _environment(cpu, table):
    """What generated code binds by name from *cpu* and its *table*.

    Registers, memory, caches and the miss walk, the accounts and
    stats, the energy model and its load and store costs, the table's
    count arrays and fault recorder, the energy-group and level
    constants, and, on an amnesic CPU, its Hist, SFile and IBuff; on a
    traced CPU, the tracker's append side.  Every environment binds
    every name a fused region or loop reads, and every amnesic one every
    name a slice reads, so a plan rendered for one CPU's names binds on
    any CPU that runs it.
    """
    config = cpu.model.config
    load_costs = {}
    store_costs = {}
    for level in Level:
        latency = config.load_latency_ns(level)
        load_costs[level] = (config.load_energy_nj(level), latency)
        store_costs[level] = (config.store_energy_nj(level), latency)
    memory = cpu.memory
    hierarchy = cpu.hierarchy
    probe1 = hierarchy.probe_cost(None, Level.L1)
    probe2 = hierarchy.probe_cost(None, Level.L2)
    l1, l2 = hierarchy.l1, hierarchy.l2
    rcmp_cost = cpu.model.rcmp_cost()
    stats = cpu.stats
    env = {
        "_r": cpu.registers,
        "_eg": cpu.account._energy_by_group,
        "_ac": cpu.account,
        "_st": stats,
        "_bc": stats.by_category,
        "_cpu": cpu,
        "_model": cpu.model,
        "_counts": table.counts,
        "_fc": table.fused_counts,
        "_fault": table.fault,
        "_cells": memory._cells,
        "_l1sets": l1._sets,
        "_shift": l1._line_shift,
        "_nsets": l1._nsets,
        "_l1h": l1.stats,
        "_l2sets": l2._sets,
        "_shift2": l2._line_shift,
        "_nsets2": l2._nsets,
        "_l2h": l2.stats,
        "_smiss": hierarchy._service_miss,
        "_lbl": hierarchy.stats.loads_by_level,
        "_sbl": hierarchy.stats.stores_by_level,
        "_ldc": load_costs,
        "_stc": store_costs,
        "_l1le": load_costs[Level.L1][0],
        "_l1lt": load_costs[Level.L1][1],
        "_l1se": store_costs[Level.L1][0],
        "_l1st": store_costs[Level.L1][1],
        "_lim": len(cpu.program.instructions),
        "_sll": stats.swapped_load_levels,
        "_rce": rcmp_cost.energy_nj,
        "_rct": rcmp_cost.time_ns,
        "_p1e": probe1.energy_nj,
        "_p1t": probe1.latency_ns,
        "_p2e": probe2.energy_nj,
        "_p2t": probe2.latency_ns,
        "_GN": GROUP_NONMEM,
        "_GL": GROUP_LOAD,
        "_GS": GROUP_STORE,
        "_GA": GROUP_AMNESIC,
        "_GH": GROUP_HIST,
        "_L1": Level.L1,
        "_L2": Level.L2,
        "_MEM": Level.MEM,
    }
    hist = getattr(cpu, "hist", None)
    if hist is not None:
        ibuff = cpu.ibuff
        env.update(
            _rec=hist.record,
            _hent=hist._entries,
            _hst=hist.stats,
            _fired=cpu.fired_slice_ids,
            _sfs=cpu.sfile.stats,
            _ibe=ibuff._entries,
            _ibf=ibuff.fetch,
            _ibs=ibuff.stats,
        )
    if cpu.tracer is not None:
        env.update(
            zip(
                ("_tpc", "_tres", "_tmi", "_tma", "_tml", "_tmp", "_ls", "_nos"),
                cpu.tracer.columns(),
            )
        )
    return env


def _decode(cpu):
    """Bind *cpu*'s program plan into a :class:`_BatchTable`.

    Each pc with a per-pc unit in the plan binds the code of its shape,
    picked by the unit's key part and what varies per CPU: whether it
    is traced and, for an ``RCMP``, the probe depth and ``verify``.  A
    ``REC`` on a CPU without a Hist, an ``RCMP`` under a policy that is
    not a paper policy or a live telemetry session, and every pc without
    a unit run the classic handler.  ``fns`` ends in one sentinel entry
    (index ``len(program)``) raising the classic "ran off the end"
    fault, so the hot loop needs no bounds check; its category slot is
    ``None`` and its hit count is never flushed into RunStats — the
    classic loop faults on fetch *before* counting, and so do we.  Then
    the fused code installs: untraced, the plan's loops and regions;
    traced, loops only, each pc appending to the columns its per-pc
    function appends to (see :func:`_trace_columns`).
    """
    program = cpu.program
    instructions = program.instructions
    tracer = cpu.tracer
    traced = tracer is not None
    plan = _plan(program, register=not traced)
    metered = get_telemetry().enabled
    table = _BatchTable(len(instructions) + 1, metered)
    env = _environment(cpu, table)
    if not traced:
        # A traced table keeps no environment: the environment holds the
        # table, and the trace must leave with its run (see _run_loop).
        # An RCMP binds its slice's traversal through this one.
        table.env = env
    # How deep RCMP probes on this run (see :data:`_DECISION`); None
    # leaves RCMP on the classic handler, which live telemetry sessions
    # (per-RCMP decision records) need.
    depth = None if metered else cpu._rcmp_depth()
    columns = _trace_columns(tracer, program) if traced else None
    fns = table.fns
    for pc, planned in enumerate(plan.pcs):
        values = None
        if planned is not None:
            part, values = planned
            if part[0] == "rcmp":
                values = None if depth is None else _rcmp_values(cpu, table, values, pc)
                if values is not None:
                    part = ("rcmp", (depth, cpu.verify), *part[2:])
            elif part[0] == "rec" and "_rec" not in env:
                values = None
        if values is None:
            fns.append(_thunk(cpu, pc, instructions[pc]))
            continue
        writer = False
        if traced:
            values = dict(values)
            writer = _column_values(values, columns(pc))
        key = ("pc", part, traced, writer)
        shape = _shaped(key, partial(_render_pc, key, values, env))
        fns.append(_bound(shape, env, values))
    table.cats.extend(_OPCODE_CATEGORY[ins.opcode] for ins in instructions)
    fns.append(_off_end(len(fns)))
    table.cats.append(None)
    for unit in plan.fused_for(program, env, columns):
        table.install(unit, env)
    return table


def _trace_columns(tracer, program):
    """One traced decode's trace columns by pc, taken once per pc.

    Returns a function from a pc to its ``(learn, instances, writers)``
    (:meth:`~repro.trace.dependence.DependenceTracker.pc_columns`).  A
    pc's per-pc function and the fused loop that holds it must append
    to the same columns: asked twice before the pc retires, the tracker
    hands out two static entries, and the second one learned replaces
    the first, instances and all.
    """
    instructions = program.instructions
    taken = {}

    def columns(pc):
        found = taken.get(pc)
        if found is None:
            found = taken[pc] = tracer.pc_columns(pc, instructions[pc])
        return found

    return columns


def _column_values(values, columns, own=""):
    """Bind one pc's trace *columns* into *values*, the names suffixed *own*.

    The names are those :func:`_column_emit` appends through.  Returns
    whether the pc appends to its destination's writers.
    """
    learn, instances, writers = columns
    values[f"_lrn{own}"] = learn
    values[f"_inst{own}"] = instances
    values[f"_ina{own}"] = instances.append
    if writers is None:
        return False
    values[f"_wra{own}"] = writers.append
    return True


def _rcmp_values(cpu, table, values, pc):
    """An RCMP's own values on *cpu*, or None when its binary has no such slice.

    Its slice's checkpoint keys ``_hk``, whether its scratch demand
    fits the SFile (``_ok``), the slice's traversal ``_sc`` (see
    :func:`_slice_traversal`) and whether the slice fires at each
    residence (``_ft1``/``_ft2``/``_ftm``).
    """
    try:
        info = cpu.binary.info_for(values["_sid"])
    except KeyError:
        return None
    sid = info.slice_id
    values = dict(
        values,
        _sid=sid,
        _hk=frozenset((sid, leaf) for leaf in info.hist_leaf_ids),
        _ok=info.sreg_demand <= cpu.sfile.capacity,
        _sc=_slice_traversal(cpu, table, info, pc),
    )
    values["_ft1"], values["_ft2"], values["_ftm"] = cpu._rcmp_fire_table(info)
    return values


def _thunk(cpu, pc, instruction):
    """Classic-handler fallback: exact semantics at dispatch-table speed.

    Covers the amnesic control opcodes, slice-region pcs, and any
    statically odd instruction whose classic handler should fault at
    runtime.  ``CPU._build_dispatch`` maps every opcode.  The handler is
    looked up per call, so a decode made during a profiled run (a slice
    traversal's) keeps none of that run's sampling handlers.
    """

    def f(cpu=cpu, pc=pc, opcode=instruction.opcode, instruction=instruction):
        cpu.pc = pc
        cpu._dispatch[opcode](instruction)
        return cpu.pc

    return f


def _off_end(pc):
    def f(pc=pc):
        raise MachineFault("pc ran off the end of the program", pc=pc)

    return f


# ----------------------------------------------------------------------
# Region batching.
#
# The per-pc loop pays one Python call per instruction.  The static
# region analyzer (``staticcheck/regions.py``) proves which runs of
# instructions have one entry, one exit, and no amnesic opcode; each
# such run of >= 2 instructions renders into ONE generated function
# whose body is the elements' descriptions concatenated, so a region
# retires with a single dispatch.
#
# The analyzer also proves self-loops: a conditional-branch header at
# ``h`` falling through into a batchable region ``[h+1, j)`` closed by
# ``JMP h`` at ``j``.  Each renders into ONE generated function at
# ``fns[h]`` that runs whole passes (header, body, loop-back) in a
# ``while`` loop, so a loop retires with a single dispatch per entry.
# The loop *replaces* its body region's fused function.
#
# The hazards a fused region or loop must keep byte-identical:
#
# * **One exit** — every fused function leaves through one frame (see
#   :func:`_fused_frame`): each way out sets ``_n``, the elements
#   retired since ``_i0``, and ``_p``, the deferred counts to add, and
#   the frame's one ``finally`` writes the hoisted accumulators back,
#   sets ``_dynamic_index`` to ``_i0 + _n`` and adds ``_p`` to the
#   unit's slot.  An edit to that bookkeeping reaches every exit.
# * **Faults mid-region** — every element that can fault (``LD``,
#   ``ST``, trapping compute) marks its offset in ``_n`` first; on any
#   exception the fused function counts the elements classic would
#   have counted (count-before-execute includes the faulting one),
#   records the faulting pc for the outer loop and re-raises, and the
#   ``finally`` leaves ``_dynamic_index`` at the number of *completed*
#   elements.  A loop pass is a region ``[h, j]`` whose element 0 is
#   the header, so a fault in pass ``p`` takes the same path after the
#   ``p - 1`` completed passes.
# * **Budget exhaustion** — a fused region runs only after a hoisted
#   ``index + length <= max_instructions`` check; otherwise it runs its
#   first element's per-pc function and returns, and the rest of the
#   region runs per pc under the outer loop's classic per-instruction
#   check.  A loop checks its budget once per pass: it enters only when
#   a whole pass fits, and when the next pass would cross the budget it
#   returns ``h`` with ``_n = 0``; entered with less than a pass left,
#   it runs only the header's per-pc function.  Either way the outer
#   loop's check raises at the classic pc with classic counts.
# * **Loop exits** — the header taken returns its target with
#   ``_n = 1``; the pass budget and faults exit as above.  Accumulators
#   are hoisted once per loop entry.
# * **Deferred counts** — a fused function adds one hit per region run
#   or loop pass; ``_flush`` expands hits into per-pc and per-category
#   counts from each installed unit's ``tail``.  A loop pass counts its
#   whole ``[h, j]``: the outer loop counted the first header, and each
#   pass's hit stands for the next one, so the budget exit (which hands
#   that header back to the outer loop) takes one header count back.
# * **Traced/timeline/profiled runs** — traced runs fuse loops only,
#   each element appending to the trace columns its per-pc function
#   appends to (one ``pc_columns`` call per pc per decode) at trace
#   index ``_i0 + offset``; timeline and profiled runs take the classic
#   loop.
# * **Entry by JR** — only a region start or loop header dispatches
#   fused code; every other pc, a loop body start included, keeps its
#   per-pc function, so a JR into a region or loop body runs per pc.
#
# Each program is analysed and planned once, into its decode plan
# (:class:`_Plan`), and every decode of that program binds the plan to
# its own CPU.  A unit's code is its shape's, rendered once per process
# for every program of that shape; the unit binds its own pcs,
# registers and immediates.  Plans are keyed by program identity, so
# what fuses depends on that program alone, and a copy of a program
# never runs its original's units.  A program is therefore never
# edited in place once it has run on fast-batched: code that derives a
# variant (a poisoned slice, a moved REC) edits a copy.
# ----------------------------------------------------------------------


class _BatchTable:
    """One CPU's decode: function table, fused slices, deferred counts.

    The count arrays live on the table (not the run loop) because the
    fused functions bind them at decode time; the flush zeroes them so a
    later ``run()`` starts clean.  ``units`` holds the fused regions and
    loops installed (:class:`_Fused`), and ``fused_counts`` one slot per
    unit, at the unit's index (a region run or a loop pass per hit).
    ``fault_pc`` is how a fused function reports the faulting element's
    pc to the outer loop (whose local ``pc`` still holds the entry pc
    when the function raises; see :meth:`fault`).  ``env`` is the CPU
    environment every function binds (see :func:`_environment`);
    ``slices`` holds the slice traversal each RCMP pc runs (see
    :func:`_slice_traversal`); ``metered`` records whether a telemetry
    session was live at decode (RCMP then stays on the classic
    handler).
    """

    __slots__ = (
        "fns",
        "cats",
        "counts",
        "fused_counts",
        "units",
        "fault_pc",
        "env",
        "slices",
        "metered",
    )

    def __init__(self, size, metered):
        self.fns = []
        self.cats = []
        self.counts = [0] * size
        self.fused_counts = []
        self.units = []
        self.fault_pc = -1
        self.env = None
        self.slices = {}
        self.metered = metered

    def fault(self, start, completed):
        """Record a fault in the fused function at *start* after *completed* elements.

        The outer loop reads the faulting element's pc from
        ``fault_pc``, and :func:`_partial_flush` counts the elements
        classic counted.
        """
        self.fault_pc = start + completed
        _partial_flush(self.counts, start, completed)

    def install(self, unit, env):
        """Bind one planned fused region or loop (see :meth:`_Plan.fused_for`).

        *env* is the CPU environment (see :func:`_environment`).  Its
        deferred-count slot is the next one, which is the slot its source
        counts into: a plan's units bind in the order they rendered.
        """
        self.fused_counts.append(0)
        self.units.append(unit)
        self.fns[unit.at] = _bound(unit.shape, env, unit.values, self.fns)


class _Shape(NamedTuple):
    """One compiled shape: code every unit of the shape binds.

    ``recipe`` holds one ``(kind, arg)`` entry per parameter, in
    parameter order (see :func:`_bound`).  The source it was compiled
    from is dropped once compiled.
    """

    code: CodeType
    recipe: tuple


class _Fused(NamedTuple):
    """One program's fused region, loop or slice: a shape and its own values.

    ``values`` holds what the unit binds for itself by parameter name
    (pcs, register numbers, immediates, Hist keys; see :class:`_Unit`).
    A fused region or loop also names the pc whose function it replaces
    (``at``), the ``(first, end, categories)`` its deferred count
    expands to (``tail``), its straight-line span and, for a loop, its
    ``(header, loop-back)`` pcs; a fused slice leaves them None.
    """

    shape: _Shape
    values: dict
    at: Optional[int] = None
    tail: Optional[tuple] = None
    span: Optional[tuple] = None
    loop: Optional[tuple] = None


def _planned(name, lines, recipe, filename, names):
    """The :class:`_Shape` of ``def name`` over *lines*.

    Its parameters are the names the lines read that *recipe* binds or,
    failing that, the CPU environment does (*names*: its keys), sorted;
    each defaults to itself, so what a CPU binds to it is a fast local.
    The lines' other names are their own locals.
    """
    bound = {}
    for token in set("\n".join(lines).translate(_SEPARATORS).split()):
        found = token.partition(".")[0]  # ``_a._b`` reads ``_a``
        if found in recipe:
            bound[found] = recipe[found]
        elif found in names:
            bound[found] = ("name", found)
    params = sorted(bound)
    signature = ", ".join(f"{key}={key}" for key in params)
    source = f"def {name}({signature}):\n" + "\n".join(lines) + "\n"
    module = compile(source, filename, "exec")
    code = next(code for code in module.co_consts if isinstance(code, CodeType))
    return _Shape(code, tuple(bound[param] for param in params))


class _Plan:
    """What decoding one program yields that no CPU state enters.

    Per pc, its per-pc unit as the program's first untraced decode
    planned it (:func:`_per_pc`: a one-element unit's key part and own
    values, None for a pc the classic handler runs); a traced decode
    reuses them or plans for itself.  The region analysis (proven
    self-loops and batchable regions), made by the first decode that
    fuses; and, planned on first demand, every fused unit
    (:class:`_Fused`: its shape's code and its own values): the regions
    and loops once, slices per ``(slice id, SFile capacity,
    concurrent_offload)``.  A traced decode's loops bind its trace, so
    each traced decode plans its own and the plan keeps none.  A plan
    holds key parts, own values and units, never a program, a CPU, a
    trace or an environment; each decode binds its own.

    The one machine state a plan holds is ``forks``: per energy-model
    fingerprint, None once an amnesic run of the program has been seen,
    then the :class:`_Fork` its next run took at its first ``RCMP``
    (see :func:`_fork`).  It is copied into CPUs, never shared with
    them, and leaves with the plan.
    """

    __slots__ = ("pcs", "analysis", "fused", "slices", "forks")

    def __init__(self, program):
        self.pcs = [_per_pc(program, pc) for pc in range(len(program.instructions))]
        self.analysis = None
        self.fused = None
        self.slices = {}
        self.forks = {}

    def fused_for(self, program, names, columns=None):
        """The fused loops and regions, in install order.

        *names* are the keys of the CPU environment that binds them;
        every environment binds every name fused code reads.  A traced
        decode passes its trace *columns* (see :func:`_trace_columns`)
        and gets traced loops of its own, which the plan does not keep.
        """
        if columns is not None:
            return self._render(program, names, columns)
        if self.fused is None:
            self.fused = self._render(program, names)
        return self.fused

    def _render(self, program, names, columns=None):
        # Proven self-loops fuse whole.  Untraced, every other batchable
        # region outside a slice fuses on its own, and in-slice regions
        # stay per pc.  Traced, straight-line regions stay per pc: a
        # profile runs its program once, and over the 33 kernels at
        # scale 1.0 loop pcs retire 98% of the traced instructions and
        # the other regions 2%, too few to repay compiling them.  A
        # unit's index is its deferred-count slot.
        if self.analysis is None:
            # Imported lazily: the staticcheck package sits above the
            # machine layer.
            from ..staticcheck.regions import analyze_regions

            self.analysis = analyze_regions(program)
        units = []
        looped = set()
        for loop in self.analysis.loops:
            unit = _render_loop(program, loop, len(units), names, columns)
            if unit is not None:
                units.append(unit)
                looped.add(loop.body)
        if columns is None:
            for region in self.analysis.batchable_regions:
                if region not in looped and not region.in_slice:
                    unit = _render_region(program, region, len(units), names)
                    if unit is not None:
                        units.append(unit)
        return tuple(units)

    def slice_for(self, program, slice_id, capacity, offload, names):
        """The planned traversal of one slice (None: not expressible)."""
        key = (slice_id, capacity, offload)
        try:
            return self.slices[key]
        except KeyError:
            unit = self.slices[key] = _render_slice(program, *key, names)
            return unit


#: Decode plans: plan key -> (weak reference to the program, plan).
_PLANS = {}


def _plan_key(program):
    """Plans are keyed by identity: a copy never shares its original's."""
    return id(program)


def _plan(program, register=True):
    """The decode plan of *program*, built by its first decode.

    Held weakly: the entry leaves when the program dies, and
    :func:`clear_codegen_caches` drops every plan.  A traced decode
    passes *register* false: it uses the program's plan if one exists
    and otherwise plans into one it keeps to itself, so a program that
    is only profiled holds no plan.
    """
    key = _plan_key(program)
    entry = _PLANS.get(key)
    if entry is not None:
        return entry[1]
    plan = _Plan(program)
    if register:
        _PLANS[key] = (
            weakref.ref(program, lambda _, key=key: _PLANS.pop(key, None)),
            plan,
        )
    return plan


def _per_pc(program, pc):
    """The per-pc unit of *pc*: ``(key part, own values)``, or None.

    A one-element unit (see :func:`_element`) whose pc is ``_s`` and
    whose fall-through pc is ``_nx``; None leaves the pc on the classic
    handler.
    """
    unit = _Unit(_s=pc, _nx=pc + 1)
    part = _element(unit, program, pc, _DESCRIBED)
    return None if part is None else (part, unit.values)


def _partial_flush(counts, start, completed):
    """Count a fused region's interior elements after a fault.

    Classic counts before executing, so the faulting element (index
    ``completed``) is counted too; element 0 was already counted by the
    outer loop.
    """
    for offset in range(1, completed + 1):
        counts[start + offset] += 1


#: A fused loop's loop-back budget test, as generated source: true when
#: the next pass, ``length`` instructions from ``_i0``, would cross the
#: budget ``_mx``, and the loop hands the header back to the outer loop.
_LOOP_BACK_EXIT = "_i0 + {length} > _mx"


def _fused_frame(first, length, keys, body):
    """The source lines of a fused region's or loop's function: one frame, one exit.

    Entered with less budget than *length* (``_mx``), it runs only the
    per-pc function *first* and returns.  Otherwise it hoists the
    accumulators in *keys* into locals and runs *body*, whose every
    return sets ``_n`` (elements retired since ``_i0``) and ``_p``
    (deferred counts to add); a fault leaves ``_n`` at its element's
    mark, records it and re-raises.  Every exit — return *and* fault —
    then passes the one ``finally``, which writes the accumulators
    back, sets ``_dynamic_index`` to ``_i0 + _n`` and adds ``_p`` to
    the unit's deferred count.  This is bit-identical to charging
    element by element: the float additions happen in the same order on
    the same running values (``_service_miss`` never touches the energy
    groups or the time account), and a faulting element raises before
    any of its charge lines run.
    """
    prologue, writeback = _hoist(keys)
    source = [
        "_i0 = _cpu._dynamic_index",
        "_mx = _cpu.max_instructions",
        f"if _i0 + {length} > _mx:",
        f"    return {first}()",
        "_n = 0",
        "_p = 0",
        *prologue,
        "try:",
        *("    " + line for line in body),
        "except BaseException:",
        "    _fault(_s, _n)",
        "    raise",
        "finally:",
        *("    " + line for line in writeback),
        "    _cpu._dynamic_index = _i0 + _n",
        "    _fc[_rid] += _p",
    ]
    return ["    " + line for line in source]


def _render_region(program, region, rid, names):
    """Plan the single-dispatch function of one batchable region.

    Its code is that of the region's shape; it binds its start ``_s``,
    end ``_end`` and deferred-count slot ``_rid`` (*rid*) with its
    elements' own values.  Entered with less budget than its length, it
    runs only its first element's per-pc function.  Returns None when
    an element cannot be rendered (odd operands, missing evaluator) —
    the region then simply stays per-pc.
    """
    start, end = region.start, region.end
    length = end - start
    unit = _Unit(_s=start, _end=end, _rid=rid)
    parts = _elements(unit, program, start, end, _FUSABLE)
    if parts is None:
        return None

    def render():
        shared = _Unit()
        keys = set()
        lines = _rendered(parts, 0, shared, keys)
        source = _fused_frame(
            "_first", length, keys, [*lines, f"_n = {length}", "_p = 1", "return _end"]
        )
        return _planned(
            "_region", source,
            _recipe(unit.values, shared, _first=("fn", "_s")),
            f"<fastpath region/{length}>", names,
        )

    return _Fused(
        _shaped(("region", tuple(parts)), render),
        unit.values,
        at=start,
        tail=(start + 1, end, _categories(program, start + 1, end)),
        span=(start, end),
    )


def _render_loop(program, loop, rid, names, columns=None):
    """Plan the one-dispatch function of one self-loop at its header.

    One pass is the header, the body region and the loop-back ``JMP``,
    rendered from their descriptions: the header's taken ``goto``
    leaves the ``while`` loop and the loop-back's falls into the next
    pass unless :data:`_LOOP_BACK_EXIT` holds.  Its code is that of the
    loop's shape; it binds its header ``_s`` and deferred-count slot
    ``_rid`` (*rid*) with its elements' own values, the header's taken
    target (the loop's exit) among them.  Entered with less than a pass
    left, it runs only the header's per-pc function; the body start
    keeps its per-pc function.  Returns None when an element cannot be
    rendered: the body region then fuses on its own (untraced) or runs
    per pc (traced).

    A traced decode passes its trace *columns* (see
    :func:`_trace_columns`): each element then retires into the columns
    its per-pc function appends to, bound as its own values, and the
    shape key adds the trace flag and each element's writer flag, which
    the columns give (an instruction may name a destination its family
    ignores, and the trace still counts it as a writer).
    """
    header, back, length = loop.header, loop.back, loop.length
    unit = _Unit(_s=header, _rid=rid)
    head = _elements(unit, program, header, header + 1, {"branch"})
    body = _elements(unit, program, header + 1, back, _FUSABLE)
    jump = _elements(unit, program, back, back + 1, {"jmp"})
    if head is None or body is None or jump is None:
        return None
    out = head[0][3][-1]  # the header's target, the loop's exit
    key = ("loop", tuple(head + body + jump))
    writers = None
    if columns is not None:
        writers = tuple(
            _column_values(unit.values, columns(header + offset), offset)
            for offset in range(length)
        )
        key += (True, writers)

    def render():
        shared = _Unit()
        keys = set()
        lines = (
            _rendered(
                head, 0, shared, keys, {"goto": lambda _: ["break"]}, writers=writers
            )
            + _rendered(body, 1, shared, keys, writers=writers)
            + _rendered(
                jump, length - 1, shared, keys, {"goto": lambda _: []}, writers=writers
            )
        )
        source = [
            "while True:",
            *("    " + line for line in lines),
            "    _p += 1",
            f"    _i0 += {length}",
            "    if " + _LOOP_BACK_EXIT.format(length=length) + ":",
            "        _n = 0",
            "        _counts[_s] -= 1",
            "        return _s",
            "_n = 1",
            f"return {out}",
        ]
        return _planned(
            "_loop", _fused_frame("_hdr", length, keys, source),
            _recipe(unit.values, shared, _hdr=("fn", "_s")),
            f"<fastpath loop/{length}>", names,
        )

    return _Fused(
        _shaped(key, render),
        unit.values,
        at=header,
        tail=(header, back + 1, _categories(program, header, back + 1)),
        span=(header + 1, back),
        loop=(header, back),
    )


#: One checkpointed operand read, inlined from ``HistoryTable.read``
#: and the scheduler's Hist charge; a missing entry raises ``KeyError``.
#: Its LRU promotion waits for the slice's last value
#: (:data:`_HIST_PROMOTE`).
_HIST_READ = (
    "$out = _hent[$key][$slot]",
    "$hrd += 1",
    "$gh += _hce",
    ("time", "$tt += _hct"),
    "$hn += 1",
)

#: A Hist read's LRU promotion, run with the slice's IBuff fetches once
#: every value is computed.
_HIST_PROMOTE = ("_hent.move_to_end($key)",)

#: One slice-instruction fetch, inlined from ``InstructionBuffer.fetch``
#: on a hit; a miss calls the method, which fills and may evict.
_IBUFF_FETCH = (
    "if $pc in _ibe:",
    "    $ih += 1",
    "    _ibe.move_to_end($pc)",
    "else:",
    "    _ibf($pc)",
)


def _render_slice(program, slice_id, capacity, offload, names):
    """Plan one slice as a single register-resident traversal.

    Slices are straight-line regions by construction (formation never
    admits control flow), so recomputation renders the compute
    description too: one generated function per slice shape replays
    what :meth:`repro.core.amnesic_cpu.AmnesicCPU._traverse_slice` does
    for a run without a timeline.  Scratch registers live in locals
    (``_v<n>``, numbered by first write), so the Renamer and SFile see
    no call at all: every traversal starts and ends with them reset,
    and their counters only depend on the slice's static read/write
    sequence, so they are added as constants on exit.  Values and
    charges stay in locals until the last value is computed; only then
    do the IBuff fetches and Hist LRU promotions run, in classic order,
    and the locals write back.  A traversal that raises has therefore
    touched nothing, and it hands the slice to ``_ref``, the reference
    traversal from the RCMP's pc, which faults exactly as classic does
    (see :func:`_slice_traversal`).  The unit binds its elements' pcs
    (``_pc<j>``, what the IBuff fetches), its Hist keys, registers and
    immediates; costs and categories bind per category and evaluators
    per opcode as the shape renders.  *capacity* is the SFile's and
    *offload* the CPU's ``concurrent_offload``.

    Returns ``None`` for slices the generator cannot express — among
    them a slice that reads a scratch register before writing it, or
    writes more distinct ones than the SFile holds; the caller then
    interprets them, which faults at the identical element.
    """
    region = program.slices[slice_id]
    start, end = region.start, region.end
    length = end - 1 - start
    unit = _Unit()
    elements = []
    scratch = {}  # scratch register -> the local holding it
    tally = {}
    # Renamer requests, SFile reads, SFile writes.
    requests = reads = writes = 0
    for j, pc in enumerate(range(start, end - 1)):
        instruction = program.instruction_at(pc)
        opcode = instruction.opcode
        dest = instruction.dest
        if opcode not in _EVALUATORS or not isinstance(dest, SReg):
            return None
        tally[instruction.category] = tally.get(instruction.category, 0) + 1
        subs = dict(_HOISTED, pc=unit.own("_pc", pc))
        kinds = []
        refs = []
        hist = []
        for n, src in enumerate(instruction.srcs):
            kind = "rt"
            if isinstance(src, SReg):
                if src.index not in scratch:
                    return None
                requests += 1
                reads += 1
                ref = text = f"_v{scratch[src.index]}"
            elif isinstance(src, HistRef):
                ref = (unit.own("_key", (slice_id, src.leaf_id)), src.slot)
                text = f"_a{j}_{n}"
                hist.append(dict(_HOISTED, key=ref[0], slot=str(src.slot), out=text))
            elif isinstance(src, Reg) and src.index:
                ref = unit.own("_g", src.index)
                text = f"_r[{ref}]"
            elif isinstance(src, Reg):
                ref = text = "0"
                kind = "int"
            elif isinstance(src, Imm):
                kind = _const_kind(src.value)
                ref = text = _immediate(unit, src.value)
            else:
                return None
            kinds.append(kind)
            refs.append(ref)
            subs[f"s{n}"] = text
        requests += 1
        writes += 1
        local = scratch.setdefault(dest.index, len(scratch))
        if len(scratch) > capacity:
            return None
        part = (opcode, tuple(kinds), tuple(refs), local)
        elements.append((part, subs, hist))

    rtn = program.instruction_at(end - 1)
    result = rtn.dest
    if (
        rtn.opcode is not Opcode.RTN
        or not isinstance(result, SReg)
        or result.index not in scratch
    ):
        return None
    requests += 1
    reads += 1
    tally[rtn.category] = tally.get(rtn.category, 0) + 1
    tally = sorted(tally.items(), key=lambda item: item[0].name)
    result = scratch[result.index]

    def render():
        flags = () if offload else ("time",)
        shared = _Unit()
        lines = []
        commits = []
        for (opcode, kinds, _, local), subs, hist in elements:
            items = _compute_description(opcode, kinds)
            subs = dict(subs)
            subs["e"], subs["t"] = _costs(
                shared, "slice_instruction_cost", _OPCODE_CATEGORY[opcode]
            )
            if "ev" in _formats(items)[1]:
                subs["ev"] = name = f"_ev_{opcode.value}"
                shared.values[name] = ("value", _EVALUATORS[opcode])
            commits += _render(_IBUFF_FETCH, subs, (), {})
            for read in hist:
                lines += _render(_HIST_READ, read, flags, {})
                commits += _render(_HIST_PROMOTE, read, (), {})
            hooks = {"dest": lambda value, d=local: [f"_v{d} = {value}"]}
            lines += _render(items, subs, flags, hooks)
        counts = [
            f"_bc[{shared.own('_cat', ('value', category))}] += {count}"
            for category, count in tally
        ]
        prologue, writeback = _hoist(("tt", "gn", "ga", "gh", "hn", "hrd", "ih"))
        source = [
            *prologue,
            "try:",
            *("    " + line for line in lines),
            "except Exception:",
            "    return _ref()",
            *commits,
            f"_st.dynamic_instructions += {length + 1}",
            f"_st.slice_instructions_executed += {length}",
            *counts,
            f"_sfs.rename_requests += {requests}",
            f"_sfs.reads += {reads}",
            f"_sfs.writes += {writes}",
            f"if _sfs.high_water < {len(scratch)}:",
            f"    _sfs.high_water = {len(scratch)}",
            "_ga += _re",
            *([] if offload else ["_tt += _rt"]),
            *writeback,
            f"_cpu._dynamic_index += {length + 1}",
            f"return _v{result}",
        ]
        hce, hct = _cost("hist_read_cost")
        rte, rtt = _cost("rtn_cost")
        recipe = _recipe(
            unit.values, shared,
            _ref=("own", "_ref"), _hce=hce, _hct=hct, _re=rte, _rt=rtt,
        )
        return _planned(
            "_slice", ["    " + line for line in source], recipe,
            f"<fastpath slice/{length}>", names,
        )

    key = ("slice", offload, tuple(part for part, _, _ in elements), result)
    return _Fused(_shaped(key, render), unit.values)


def _slice_traversal(cpu, table, info, pc):
    """The traversal the ``RCMP`` at *pc* runs, bound once per decode.

    The slice's fused function when the generator can express it, else
    the reference itself: ``AmnesicCPU._traverse_slice`` from the
    RCMP's pc, which a fused traversal that raises hands its slice to.
    A rendered RCMP binds it at decode and calls it directly (``_sc``);
    one the classic handler runs reaches it through
    :meth:`BatchedExecutionMixin._traverse_slice`.  Both read this
    decode's per-pc cache.
    """
    try:
        return table.slices[pc]
    except KeyError:
        pass

    def reference():
        cpu.pc = pc
        return super(BatchedExecutionMixin, cpu)._traverse_slice(info)

    unit = _plan(cpu.program).slice_for(
        cpu.program, info.slice_id, cpu.sfile.capacity, cpu.concurrent_offload,
        table.env,
    )
    traverse = table.slices[pc] = (
        reference
        if unit is None
        else _bound(unit.shape, table.env, dict(unit.values, _ref=reference))
    )
    return traverse


def _categories(program, first, end):
    """Aggregated categories of the instructions at pcs ``[first, end)``.

    Integer count increments commute, so the deferred flush can expand
    one fused hit into per-category totals without replaying order.
    """
    tally = {}
    for pc in range(first, end):
        category = _OPCODE_CATEGORY[program.instructions[pc].opcode]
        tally[category] = tally.get(category, 0) + 1
    return tuple(tally.items())


# ----------------------------------------------------------------------
# Forks.
#
# Every runtime decision of the amnesic machine sits at an RCMP (paper
# section 3.3), so until a binary's first RCMP every run of it under one
# energy model retires the same instructions with the same caches,
# energy and time: the policy, ``verify``, the SFile capacity and
# ``concurrent_offload`` act only from there on, and the Hist capacity
# only through the REC writes the table keeps.  So a binary's first
# amnesic run under a model only marks its plan; the next one swaps the
# function of every RCMP pc for a stop that snapshots the machine at the
# first RCMP dispatch (a :class:`_Fork`) and then runs the RCMP; and
# every later run whose budget reaches past the fork index starts from
# a copy of the snapshot instead of pc 0.  A binary that runs once holds
# no snapshot.
#
# The stop is exact and costs the hot loop nothing: no fused region or
# loop contains an RCMP (the region analyzer admits no amnesic opcode),
# and fused code calls only its own first or header per-pc function, so
# every RCMP dispatch is the outer loop's call of ``fns[pc]``, made
# after the budget check and the pc's count.  A restored run meets the
# same checks from the fork on.
# ----------------------------------------------------------------------

#: A plan's fork slot before any run of the binary under a model.
_UNSEEN = object()


class _Fork(NamedTuple):
    """The machine at a binary's first ``RCMP`` dispatch, before it runs.

    ``index`` instructions retired before it (the fork index) and the
    ``pc`` of the RCMP; the registers; the ``addresses`` and ``values``
    of the memory cells that differ from the program's data segment, in
    insertion order (two tuples hold an mcf fork's 12,416 cells in a
    third of a dict's memory); both caches' sets in LRU order with dirty
    bits; the attributes of the counters and accounts :func:`_accounts`
    names; the table's deferred per-pc and fused counts, less the RCMP's
    own dispatch; and the ``REC`` writes before it, ``(slice id, leaf
    id, values)`` in order, made into a Hist of ``capacity`` entries.
    The SFile, the IBuff and the fired-slice set are untouched before
    the first RCMP.
    """

    index: int
    pc: int
    registers: tuple
    addresses: tuple
    values: tuple
    sets: tuple
    state: tuple
    counts: list
    fused_counts: list
    recs: tuple
    capacity: int


def _accounts(cpu):
    """The counters and accounts a fork copies attribute by attribute."""
    hierarchy = cpu.hierarchy
    return (
        cpu.stats,
        cpu.account,
        hierarchy.stats,
        hierarchy.l1.stats,
        hierarchy.l2.stats,
    )


def _fork(cpu, table):
    """Resume *cpu* from its binary's fork, or arrange for this run to take it.

    Only an amnesic run from the machine's initial state forks.  Returns
    the ``(pc, function)`` pairs a snapshot-taking run displaced from
    ``table.fns``; the run puts them back however it ends.
    """
    if getattr(cpu, "hist", None) is None or cpu._dynamic_index or cpu.pc:
        return ()
    forks = _plan(cpu.program).forks
    key = cpu.model.fingerprint()
    fork = forks.get(key, _UNSEEN)
    if fork is _UNSEEN:
        forks[key] = None
        return ()
    if fork is None:
        return _arm(cpu, table, forks, key)
    if cpu.max_instructions > fork.index:
        _restore(fork, cpu, table)
        telemetry = get_telemetry()
        if telemetry.enabled:
            # The run's ``execute.amnesic`` span.
            telemetry.tracer.current().set(restored=fork.index)
    return ()


def _arm(cpu, table, forks, key):
    """Stop at every ``RCMP`` pc and log every ``REC`` until the first stop."""
    fns = table.fns
    entries = cpu.hist._entries
    displaced = []
    writes = []

    def stop(pc):
        forks[key] = _snapshot(cpu, table, pc, writes)
        for at, fn in displaced:
            fns[at] = fn
        return fns[pc]()

    def logged(rec, leaf):
        def f():
            pc = rec()
            writes.append((*leaf, entries[leaf]))
            return pc

        return f

    for pc, instruction in enumerate(cpu.program.instructions):
        if instruction.opcode is Opcode.RCMP:
            displaced.append((pc, fns[pc]))
            fns[pc] = lambda pc=pc: stop(pc)
        elif instruction.opcode is Opcode.REC:
            displaced.append((pc, fns[pc]))
            fns[pc] = logged(fns[pc], (instruction.slice_id, instruction.leaf_id))
    return displaced


def _snapshot(cpu, table, pc, writes):
    """The :class:`_Fork` of *cpu* as its loop dispatches the ``RCMP`` at *pc*."""
    data = cpu.program.data.cells
    cells = cpu.memory._cells
    written = tuple(
        address
        for address, value in cells.items()
        if data.get(address, _UNSEEN) is not value
    )
    counts = list(table.counts)
    counts[pc] -= 1
    hierarchy = cpu.hierarchy
    return _Fork(
        index=cpu._dynamic_index,
        pc=pc,
        registers=tuple(cpu.registers),
        addresses=written,
        values=tuple(map(cells.__getitem__, written)),
        sets=tuple(
            tuple(lines.copy() for lines in cache._sets)
            for cache in (hierarchy.l1, hierarchy.l2)
        ),
        state=tuple(
            {
                name: dict(value) if isinstance(value, dict) else value
                for name, value in vars(part).items()
            }
            for part in _accounts(cpu)
        ),
        counts=counts,
        fused_counts=list(table.fused_counts),
        recs=tuple(writes),
        capacity=cpu.hist.capacity,
    )


def _fresh_sets(sets):
    """Copies of a fork's cache sets for one restored run to own."""
    return [lines.copy() for lines in sets]


def _replay(hist, fork):
    """Rebuild *hist* from the fork's ``REC`` writes at its own capacity.

    The values are architectural, so the replay reproduces the entries,
    their LRU order, ``writes``, ``evictions`` and ``high_water`` of a
    run that executed the writes; nothing reads the Hist before the
    first RCMP.
    """
    for write in fork.recs:
        hist.record(*write)


def _restore(fork, cpu, table):
    """Write *fork* into *cpu* and its decode *table*, in place.

    The miss walk (``MemoryHierarchy._walk``), every bound function and
    outside observers of a run hold these objects by identity, so each
    is overwritten, never replaced.  The CPU is fresh: its memory is the
    data segment and its Hist is empty.
    """
    cpu.registers[:] = fork.registers
    cpu.memory._cells.update(zip(fork.addresses, fork.values))
    hierarchy = cpu.hierarchy
    for cache, sets in zip((hierarchy.l1, hierarchy.l2), fork.sets):
        cache._sets[:] = _fresh_sets(sets)
    for part, saved in zip(_accounts(cpu), fork.state):
        for name, value in saved.items():
            own = getattr(part, name)
            if isinstance(own, dict):
                own.clear()
                own.update(value)
            else:
                setattr(part, name, value)
    _replay(cpu.hist, fork)
    table.counts[:] = fork.counts
    table.fused_counts[:] = fork.fused_counts
    cpu._dynamic_index = fork.index
    cpu.pc = fork.pc


class BatchedExecutionMixin:
    """Run on the generated fast path instead of the classic loop.

    Mix in ahead of :class:`CPU` (or a subclass).  At predecode, a CPU
    binds its program's decode plan (:class:`_Plan`): each planned
    pc's per-pc function and the fused code — proven self-loops fuse
    whole and, untraced, every other batchable region outside a slice
    fuses on its own; in-slice regions stay per-pc.  On amnesic
    machines, slice traversals run fused too (unless a timeline is
    attached), and RCMP renders per pc when :meth:`_rcmp_depth` gives
    a probe depth.  An amnesic run from the initial state forks at its
    binary's first RCMP (see :func:`_fork`): it resumes from the
    binary's snapshot when one exists and its budget reaches past it,
    so the instructions it retires include ones it never executed.  See
    the module docstring for the backend contract.
    """

    def _decoded(self):
        table = self.__dict__.get("_batch_decode")
        if table is None or table.metered is not get_telemetry().enabled:
            table = _decode(self)
            if self.tracer is None:
                # A traced table binds the tracer; cached on this CPU it
                # would keep the trace alive as long as the CPU.
                self.__dict__["_batch_decode"] = table
        return table

    def __getstate__(self):
        # The decode holds generated functions over this instance's hot
        # state — unpicklable and meaningless in another process (the
        # parallel engine ships finished CPUs back to the parent).  Drop
        # it; _decoded() rebuilds on demand.  Chained through super() so
        # cooperating bases (AmnesicCPU's telemetry handles) get to drop
        # their own state too.
        state = super().__getstate__()
        state.pop("_batch_decode", None)
        return state

    def _rcmp_depth(self):
        """How deep RCMP probes when it renders per pc (None: classic).

        See :data:`_DECISION`.
        """
        return None

    def _traverse_slice(self, info):
        if self._timeline is None:
            # Nothing on the interpreted path emits an observable event
            # without a timeline, so the fused traversal is exact.
            return _slice_traversal(self, self._decoded(), info, self.pc)()
        return super()._traverse_slice(info)

    def _run_loop(self) -> None:
        if self._timeline is not None or get_telemetry().active_profiler() is not None:
            # Timelines capture mid-run state per retired instruction and
            # the profiler samples the classic dispatch: the classic loop
            # keeps both exact.
            return super()._run_loop()
        table = self._decoded()
        fns = table.fns
        counts = table.counts
        max_instructions = self.max_instructions
        displaced = _fork(self, table)
        pc = self.pc
        try:
            if not self.halted:
                while True:
                    if self._dynamic_index >= max_instructions:
                        raise ExecutionLimitExceeded(
                            f"exceeded {max_instructions} "
                            f"dynamic instructions",
                            pc=pc,
                        )
                    counts[pc] += 1
                    pc = fns[pc]()
                    if pc < 0:
                        break
        finally:
            for at, fn in displaced:
                fns[at] = fn
            self._flush(table, pc)
            if self.tracer is not None:
                # A traced table is this run's alone (see _decoded), and
                # its fused loops bind its fault recorder: emptied, it and
                # the trace columns its code appends to leave with the
                # run instead of waiting for a cyclic collection.
                fns.clear()

    def _flush(self, table, pc) -> None:
        stats = self.stats
        by_category = stats.by_category
        counts = table.counts
        cats = table.cats
        visits = list(counts)
        flushed = 0
        for index, hits in enumerate(counts):
            if hits:
                category = cats[index]
                if category is not None:
                    by_category[category] += hits
                    flushed += hits
                counts[index] = 0
        fused_counts = table.fused_counts
        for rid, hits in enumerate(fused_counts):
            if hits:
                first, end, categories = table.units[rid].tail
                for category, per_pass in categories:
                    by_category[category] += per_pass * hits
                flushed += (end - first) * hits
                for index in range(first, end):
                    visits[index] += hits
                fused_counts[rid] = 0
        stats.dynamic_instructions += flushed
        # Per-pc dynamic visit counts of the last run (region and loop
        # counts expanded), for the batching property tests.
        self._batch_visit_counts = visits[: len(visits) - 1]
        if pc >= 0:
            # Keep the architectural pc observable exactly as the
            # classic loop leaves it (fault pc, halt pc, budget pc); a
            # fused region that faulted left the outer pc at the region
            # start and recorded the faulting element.
            self.pc = table.fault_pc if table.fault_pc >= 0 else pc
        table.fault_pc = -1


class BatchedFastCPU(BatchedExecutionMixin, CPU):
    """The generated fast backend for classic execution semantics."""
