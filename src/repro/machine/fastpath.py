"""The fast execution backend: one description per opcode, five renderings.

:class:`BatchedExecutionMixin` replaces the classic fetch/decode/dispatch
loop of :class:`~repro.machine.cpu.CPU` with a predecoded program.  Each
opcode family the fast path handles (compute, ``LD``, ``ST``, branches,
``JMP``, ``JAL``, ``JR``, ``NOP``, ``REC``, and ``RCMP`` per decision
mechanism) is *described once*: a tuple
of Python source lines that mirrors the classic handler statement for
statement — same value semantics, same fault points and messages, same
energy charges in the same order, same cache/LRU transitions.  The lines
are written against placeholders (``$s0`` for the first operand, ``$gl``
for the load-energy accumulator, ``$tt`` for modeled time, ``$pc`` ...)
plus four hook lines (``dest``, ``emit``, ``mark``, ``goto``), and one
description renders five ways:

* **per-pc functions** — one zero-argument function per static
  instruction that returns the next pc (``-1`` after ``HALT``), so a
  straight-line stretch runs with no branch/halt checks.  Each binds
  the code of its opcode shape, compiled once per process; the pc,
  operand boxes, costs and targets bind per pc as default parameters,
  and accumulators are charged where they live;
* **traced per-pc functions** — the same lines, where the ``emit`` hook
  and the ``traced`` lines append the instruction's own dependence-trace
  columns (pc, result, its pc's instances, its destination's writers;
  address, service level and producing store for ``LD``/``ST``)
  through the tracker's append side
  (:meth:`~repro.trace.dependence.DependenceTracker.columns`), at the
  point the classic handler calls ``_emit``, so no event is built;
* **fused regions** — every statically proven straight-line run outside
  a slice (see :mod:`repro.staticcheck.regions`) concatenated into one
  generated function, with accumulators hoisted into locals; the
  ``mark`` of each element that can fault (``LD``, ``ST``, trapping
  compute) records its offset for the fault path;
* **fused loops** — statically proven self-loops (a branch header, one
  batchable body region, a ``JMP`` back): header, body and loop-back
  rendered as one pass inside a ``while`` loop, where the header's
  taken ``goto`` leaves the loop; accumulators are hoisted once per
  loop entry and the budget is checked once per pass;
* **fused slices** — the compute description again, fed by Hist and
  register operands, with scratch registers in locals: one generated
  function per RSlice.

One plan, one binder.  A program's first decode builds its *decode
plan* (:class:`_Plan`): each pc classified once (family, opcode,
operands, branch target, evaluator, slice ids) and, rendered from that
and the read-only ranges on first demand, each fused region, loop and
slice as a code object with a recipe naming what each parameter binds
to.  Per-pc code is planned by shape the same way.  Every decode binds
the plan to its own CPU through :func:`_bound`, from one environment of
CPU facts: registers, accounts, model costs, Hist, SFile fit, fire
tables, slice cells and trace columns.

``RCMP`` renders per pc for the run's policy (see :data:`_MECHANISMS`):
its decision inline, a direct call into the slice's fused traversal,
and the inherited load rendered from the ``LD`` description.

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
* **Observability**: a run with a timeline attached uses the classic
  loop (timelines sample mid-run state per instruction); a run under
  the hot-loop profiler uses the classic profiled loop.  A traced run
  (a classic CPU profiling into a
  :class:`~repro.trace.dependence.DependenceTracker`) keeps the
  predecoded loop with traced per-pc functions, never fused: a profile
  runs its program once, so compiling fused regions for it costs more
  than it saves (see ``_decode``).  The tracer is fixed at CPU
  construction, so the variant is chosen at decode time; amnesic CPUs
  take none.  ``HALT``, ``RTN``, statically odd instructions, and
  ``RCMP`` under a live telemetry session (per-RCMP decision records)
  or for a policy without a mechanism run the classic handler, which
  retires through ``CPU._emit`` into the same columns, in order.

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
from functools import lru_cache
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
    """Lines computing the effective address ``_a`` (``effective_address``)."""
    return (
        f"_a = {base} + {offset}",
        "if isinstance(_a, float):",
        "    if not _a.is_integer():",
        "        raise _MF(f'non-integer effective address {_a}', pc=$pc)",
        "    _a = int(_a)",
    )


def _load_address(base, offset):
    """The address lines of LD/ST, tagged ``ea``: RCMP computes its own."""
    return tuple(("ea", line) for line in _address(base, offset))


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
        *_load_address("$s0", "$s1"),
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
        *_load_address("$s1", "$s2"),
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
}

#: Families whose per-pc function falls through to ``pc + 1``.
_FALLTHROUGH = frozenset({"compute", "ld", "st", "branch", "nop", "rec", "rcmp"})

#: Operand counts the fixed-shape families read.
_ARITY = {"ld": 2, "st": 3, "branch": 2, "jr": 1, "rcmp": 2}

#: Families whose ``dest`` hook writes an architectural register.
_WRITES_DEST = frozenset({"compute", "ld", "jal", "rcmp"})


def _read_only_test(ranges):
    """``Memory.is_read_only(_a)`` over *ranges*, ``(lo, hi)`` source pairs."""
    return " or ".join(f"{lo} <= _a < {hi}" for lo, hi in ranges) or "False"


#: ``MemoryHierarchy.residence(_a)`` below L1, into ``_rl``.
_RESIDENCE_L2 = (
    "_ln = _a >> _shift2",
    "_rl = _L2 if _ln in _l2sets[_ln % _nsets2] else _MEM",
)
_RESIDENCE = (
    "_ln = _a >> _shift",
    "if _ln in _l1sets[_ln % _nsets]:",
    "    _rl = _L1",
    "else:",
    *("    " + line for line in _RESIDENCE_L2),
)

#: The scheduler's decision mechanisms (paper section 3.3.1), each as
#: ``(decision, residence, probe)``: lines that set ``_f`` (fire?) from
#: ``_a``; lines that leave ``_rl`` = the load's residence once a slice
#: fired (a fire implies the probes missed); and the prefix of the probe
#: cost a fire or a fallback after a fire charges (None: no probe).
#: Probes count in the tag-probe stats and leave LRU state alone.
_MECHANISMS = {
    # Fire on every RCMP.
    "always": (("_f = True",), _RESIDENCE, None),
    # Fire on a miss through L1.
    "l1": (
        (
            "_l1h.probes += 1",
            "_ln = _a >> _shift",
            "_f = _ln not in _l1sets[_ln % _nsets]",
        ),
        _RESIDENCE_L2,
        "_p1",
    ),
    # Fire on a miss through L2.
    "l2": (
        (
            "_l1h.probes += 1",
            "_ln = _a >> _shift",
            "if _ln in _l1sets[_ln % _nsets]:",
            "    _f = False",
            "else:",
            "    _l2h.probes += 1",
            "    _ln = _a >> _shift2",
            "    _f = _ln not in _l2sets[_ln % _nsets2]",
        ),
        ("_rl = _MEM",),
        "_p2",
    ),
    # Fire by the slice's per-residence table (``_ft1``/``_ft2``/``_ftm``).
    "table": (
        (
            *_RESIDENCE,
            "_f = _ft1 if _rl is _L1 else _ft2 if _rl is _L2 else _ftm",
        ),
        (),
        None,
    ),
}


@lru_cache(maxsize=None)
def _rcmp_description(mechanism, verify):
    """RCMP for one decision mechanism: ``AmnesicCPU._execute_rcmp`` inline.

    Same order as the classic handler: count, address, RCMP charge,
    decision, Hist/SFile readiness (``_ok``: the slice's scratch demand
    fits; ``_hk``: its checkpoint keys), probe charge, the slice through
    its cell ``_sc``, residence count and ``verify``; otherwise the
    fallback or skip count, the probe charge after a fire, and the
    inherited load — the LD description itself, without its address
    lines.
    """
    decide, residence, probe = _MECHANISMS[mechanism]
    charge = () if probe is None else (f"$ga += {probe}e", f"$tt += {probe}t")
    check = ()
    if verify:
        check = (
            *_READ,
            "if _v != _x:",
            "    raise _RM($sid, expected=_x, actual=_v, pc=$pc)",
        )
    fired = (
        *residence,
        "_st.recomputations_fired += 1",
        "_sll[_rl] += 1",
        "_fired.add($sid)",
        *check,
    )
    return (
        "_st.rcmp_encountered += 1",
        *_address("$s0", "$s1"),
        "$ga += _rce",
        "$tt += _rct",
        *decide,
        "if _f:",
        "    if _ok and _hent.keys() >= _hk:",
        *("        " + line for line in charge),
        "        try:",
        "            _v = _sc[0]()",
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
        *_FAMILIES["ld"],
    )

#: Families a fused region may contain (the region analyzer admits no
#: control transfer and no amnesic opcode).
_FUSABLE = frozenset({"compute", "ld", "st", "nop"})


@lru_cache(maxsize=None)
def _compute_description(opcode, kinds):
    """The compute family for one opcode and operand-kind tuple.

    A kind is ``"rt"`` for a value known only at run time (read once
    into ``_y<n>`` and type-guarded) or the kind of a constant operand
    (see :func:`_const_kind`), which stays a literal.  The inline form
    runs when its guard holds and the evaluator otherwise; the charge
    is tagged ``time`` so concurrent-offload slices can hide latency.
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


def _column_emit(writer):
    """The traced ``emit`` hook: append the instruction's trace columns.

    Mirrors ``DependenceTracker.retire`` for one pc: enter the
    pc in the static table at its first retirement, then append pc and
    result, the index to the pc's instances and, when *writer*, to its
    destination register's writers, and for a memory access the index,
    address and level (the description's ``traced`` lines append the
    producing store).
    """

    def emit(result, address=None, level=None):
        lines = [
            "_ix = _cpu._dynamic_index",
            "_cpu._dynamic_index = _ix + 1",
            "if not _inst:",
            "    _lrn()",
            "_tpc(_pc)",
            f"_tres({result or 'None'})",
            "_ina(_ix)",
        ]
        if writer:
            lines.append("_wra(_ix)")
        if address is not None:
            lines += ["_tmi(_ix)", f"_tma({address})", f"_tml({level})"]
        return lines

    return emit


#: Per-pc units by shape (see :func:`_per_pc_unit`).
_SHAPES = {}


def _per_pc_unit(shape, values, names):
    """The per-pc function of one shape, rendered on its first demand.

    *shape* is ``(family, variant, boxes, dest, cost, traced, writer,
    read_only)``: the class's fields (with ``(mechanism, verify)`` as
    the variant of RCMP), whether the function appends trace columns,
    whether it appends to its destination's writers, and the number of
    read-only ranges a store checks.  Its recipe binds the operand and
    destination boxes the shape names, the costs, the names in
    *values* (the pc's own values) per pc and every other name it reads
    from the CPU environment (*names*); every pc of one shape has the
    same values by name, so the unit serves them all.
    """
    unit = _SHAPES.get(shape)
    if unit is not None:
        return unit
    family, variant, boxes, dest, cost, traced, writer, read_only = shape
    arity = len(boxes)
    subs = dict(_AT_HOME)
    subs.update(
        pc="_pc", nx="_nx", tg="_tg", e="_e", t="_t", ev="_ev",
        sid="_sid", lid="_lid", cmp=_BRANCH_OPS.get(variant, ""),
        srcs="".join(f"_b{n}[_i{n}], " for n in range(arity)),
        ro=_read_only_test(
            (f"_ro[{2 * k}]", f"_ro[{2 * k + 1}]") for k in range(read_only)
        ),
    )
    for n in range(arity):
        subs[f"s{n}"] = f"_b{n}[_i{n}]"
    flags = {"time"} if family == "rcmp" else {"time", "ea"}
    if traced:
        flags.add("traced")
    if read_only:
        flags.add("ro")
    hooks = {
        "dest": lambda value: [f"_db[_di] = {value}"],
        "emit": _column_emit(writer) if traced else _counted_emit,
        "goto": lambda target: [f"return {target}"],
    }
    lines = _render(
        _description(family, variant, ("rt",) * arity), subs, flags, hooks
    )
    if family in _FALLTHROUGH:
        lines.append("return _nx")
    recipe = {name: ("pc", name) for name in values}
    for n, box in enumerate(boxes):
        if box is not None:
            recipe[f"_b{n}"] = ("name", box)
    if dest is not None:
        recipe["_db"] = ("name", dest)
    if cost is not None:
        recipe["_e"], recipe["_t"] = _cost(*cost)
    if variant is None:
        label = family
    elif family == "rcmp":
        mechanism, verify = variant
        label = f"rcmp-{mechanism}" + ("-verify" if verify else "")
    else:
        label = variant.value
    unit = _SHAPES[shape] = _planned(
        "_f", ["    " + line for line in lines], recipe,
        f"<fastpath {label}/{arity}>", names,
    )
    return unit


@lru_cache(maxsize=2048)
def _compiled_region(source, filename):
    """Compile one generated source, cached by source.

    The source embeds only pcs, opcodes, operand indices and the
    read-only ranges; every run-dependent value (registers, accounts,
    costs) binds through default parameters (see :func:`_bound`).  Equal
    shapes and equal programs, such as one kernel instantiated afresh
    for every run, share one ``compile``.
    """
    return compile(source, filename, "exec")


def _function_code(name, lines, params, filename):
    """The code of ``def name(...)`` over indented *lines*.

    Every name in *params* (sorted) is a parameter defaulting to itself,
    so what a CPU binds to it is a fast local.
    """
    signature = ", ".join(f"{key}={key}" for key in params)
    source = f"def {name}({signature}):\n" + "\n".join(lines) + "\n"
    module = _compiled_region(source, filename)
    return next(code for code in module.co_consts if isinstance(code, CodeType))


#: The globals of every bound function: it reads parameters and
#: builtins only.
_GLOBALS = {"__builtins__": builtins}


def _bound(unit, env, values=None, fns=()):
    """Instantiate a planned function over one CPU's environment *env*.

    Each parameter's recipe entry names where its value comes from:
    ``("name", key)`` the environment's *key*; ``("pc", key)`` the
    bound pc's own value *key* in *values*; ``("cost", (method, args,
    field))`` a cost of the CPU's energy model, priced once per
    environment (the price is kept in it under the entry); ``("fn",
    pc)`` the per-pc function ``fns[pc]``; ``("value", v)`` the constant
    *v*.
    """
    defaults = []
    for kind, arg in unit.recipe:
        if kind == "name":
            defaults.append(env[arg])
        elif kind == "pc":
            defaults.append(values[arg])
        elif kind == "cost":
            cost = env.get(arg)
            if cost is None:
                method, args, field = arg
                model = env["_model"]
                cost = env[arg] = getattr(getattr(model, method)(*args), field)
            defaults.append(cost)
        elif kind == "fn":
            defaults.append(fns[arg])
        else:
            defaults.append(arg)
    return FunctionType(unit.code, _GLOBALS, unit.code.co_name, tuple(defaults))


def clear_codegen_caches():
    """Drop every compiled source, per-pc unit and decode plan (descriptions changed)."""
    _compiled_region.cache_clear()
    _compute_description.cache_clear()
    _rcmp_description.cache_clear()
    _SHAPES.clear()
    _PLANS.clear()


# ----------------------------------------------------------------------
# Per-pc decode.
# ----------------------------------------------------------------------

class _Class(NamedTuple):
    """What the fast path knows of one pc before any CPU runs it.

    ``family`` and ``variant`` (the opcode of a compute or branch
    family, else None) pick the description.  ``boxes`` names, for each
    source operand, the environment's registers (``"_r"``) as its box,
    or None when its box is a one-slot constant of the pc's own; and
    ``dest`` a written destination's box: the registers or the r0 sink
    (``"_sink"``; None: the family writes none).  ``cost`` is the model
    cost ``$e``/``$t`` charge as ``(method, *args)``, if any.
    ``consts`` holds the pc's own values by the name its code reads:
    pc, next pc, branch target, evaluator, slice and leaf ids, operand
    indices and constant boxes, and a ``JR``'s instruction.
    """

    family: str
    variant: object
    boxes: tuple
    dest: Optional[str]
    cost: Optional[tuple]
    consts: dict


def _classify(program, pc, instruction):
    """The :class:`_Class` of a described instruction, else None.

    None leaves the pc on the classic handler, which keeps every
    statically odd case (an undefined label, a non-register
    destination, an opcode without value semantics, a scratch or Hist
    operand outside a slice) faulting at run time exactly as classic
    does.  Whether a CPU can run a ``REC`` or ``RCMP`` (its Hist, its
    policy, its binary's slice table) is the decode's to say.
    """
    opcode = instruction.opcode
    category = _OPCODE_CATEGORY[opcode]
    consts = {"_pc": pc, "_nx": pc + 1}
    variant = None
    cost = ("compute_cost", category)
    if category.is_compute:
        family = "compute"
        variant = opcode
        consts["_ev"] = _EVALUATORS.get(opcode)
        if consts["_ev"] is None:
            return None
    elif category is Category.BRANCH:
        family = "branch"
        variant = opcode
        if opcode not in _BRANCH_OPS:
            return None
    elif opcode is Opcode.RCMP:
        family = "rcmp"
    else:
        family = opcode.value
        if family not in _FAMILIES:
            return None
        if family == "jr":
            consts["_ins"] = instruction  # its fault message names it
    arity = len(instruction.srcs)
    if arity != _ARITY.get(family, arity):
        return None
    dest = instruction.dest
    if family in _WRITES_DEST and not isinstance(dest, Reg):
        return None
    if family in ("branch", "jmp", "jal"):
        consts["_tg"] = program.labels.get(instruction.target)
        if consts["_tg"] is None:
            return None
    if family == "rec":
        cost = ("rec_cost",)
        consts.update(_sid=instruction.slice_id, _lid=instruction.leaf_id)
    elif family == "rcmp":
        cost = None
        consts["_sid"] = instruction.slice_id
    elif family in ("ld", "st"):
        cost = None
    boxes = []
    for n, src in enumerate(instruction.srcs):
        if isinstance(src, Reg):
            # r0 is never written (destination r0 writes go to a sink),
            # so reading the backing slot is the classic hardwired zero.
            boxes.append("_r")
            consts[f"_i{n}"] = src.index
        elif isinstance(src, Imm):
            boxes.append(None)
            consts[f"_b{n}"], consts[f"_i{n}"] = (src.value,), 0
        else:
            return None
    if family in _WRITES_DEST:
        consts["_di"] = dest.index
        dest = "_r" if dest.index else "_sink"
    else:
        dest = None
    return _Class(family, variant, tuple(boxes), dest, cost, consts)


def _environment(cpu, table):
    """What generated code binds by name from *cpu* and its *table*.

    Registers and the r0 sink, memory, caches and the miss walk, the
    accounts and stats, the energy model and its load and store costs,
    the table's count arrays and partial flush, the fault and level
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
        "_sink": [0],
        "_eg": cpu.account._energy_by_group,
        "_ac": cpu.account,
        "_st": stats,
        "_bc": stats.by_category,
        "_cpu": cpu,
        "_model": cpu.model,
        "_counts": table.counts,
        "_fc": table.fused_counts,
        "_tbl": table,
        "_flush": _partial_flush,
        "_cells": memory._cells,
        "_ro": tuple(bound for pair in memory._read_only for bound in pair),
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
        "_MF": MachineFault,
        "_MemF": MemoryFault,
        "_AF": ArithmeticFault,
        "_RM": RecomputationMismatch,
        "_GN": GROUP_NONMEM,
        "_GL": GROUP_LOAD,
        "_GS": GROUP_STORE,
        "_GA": GROUP_AMNESIC,
        "_GH": GROUP_HIST,
        "_L1": Level.L1,
        "_L2": Level.L2,
        "_MEM": Level.MEM,
        "_wi": wrap_int64,
    }
    hist = getattr(cpu, "hist", None)
    if hist is not None:
        ibuff = cpu.ibuff
        env.update(
            _rec=hist.record,
            _hent=hist._entries,
            _hr=hist.read,
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

    Each pc the plan classified binds the per-pc unit of its shape; a
    ``REC`` on a CPU without a Hist, an ``RCMP`` under a policy without
    a mechanism or a live telemetry session, ``HALT`` and every pc the
    plan left unclassified run the classic handler.  ``fns`` ends in
    one sentinel entry (index ``len(program)``) raising the classic
    "ran off the end" fault, so the hot loop needs no bounds check; its
    category slot is ``None`` and its hit count is never flushed into
    RunStats — the classic loop faults on fetch *before* counting, and
    so do we.
    """
    program = cpu.program
    instructions = program.instructions
    plan = _plan(program)
    metered = get_telemetry().enabled
    table = _BatchTable(len(instructions) + 1, metered)
    env = _environment(cpu, table)
    tracer = cpu.tracer
    traced = tracer is not None
    # How RCMP decides on this run (see :data:`_MECHANISMS`); None
    # leaves RCMP on the classic handler, which live telemetry sessions
    # (per-RCMP decision records) need.
    mechanism = None if metered else cpu._rcmp_mechanism()
    # Stores compare against the read-only ranges (bound per CPU as one
    # flat tuple); with none configured the check renders away.
    read_only = len(cpu.memory._read_only)
    fns = table.fns
    for pc, (instruction, found) in enumerate(zip(instructions, plan.classes)):
        family = None if found is None else found.family
        if family is None or family == "rec" and "_rec" not in env:
            values = None
        elif family == "rcmp":
            values = None if mechanism is None else _rcmp_values(
                cpu, table, found, pc, mechanism
            )
        else:
            values = found.consts
        if values is None:
            halts = instruction.opcode is Opcode.HALT
            fns.append((_halt if halts else _thunk)(cpu, pc, instruction))
            continue
        if traced:
            learn, instances, writers = tracer.pc_columns(pc, instruction)
            values = dict(values, _lrn=learn, _inst=instances, _ina=instances.append)
            if writers is not None:
                values["_wra"] = writers.append
        shape = (
            family,
            (mechanism, cpu.verify) if family == "rcmp" else found.variant,
            found.boxes,
            found.dest,
            found.cost,
            traced,
            "_wra" in values,
            read_only if family == "st" else 0,
        )
        fns.append(_bound(_per_pc_unit(shape, values, env), env, values))
    table.cats.extend(_OPCODE_CATEGORY[ins.opcode] for ins in instructions)
    fns.append(_off_end(len(fns)))
    table.cats.append(None)
    if traced:
        # Traced runs stay per pc.  A profile runs its program once, so
        # compiling fused regions for it never pays for itself:
        # profiling the 33 kernels at scale 1.0 (1.12M instructions)
        # took 1.6-1.9 s of CPU per pc against 2.3-2.7 s with traced
        # regions fused, on a 2-vCPU Xeon host.  The fused code also
        # kept the trace alive until a full collection, raising
        # lint-suite peak RSS by 25-31%.  For the same reason a traced
        # table keeps no environment: the environment holds the table.
        return table
    table.env = env
    for unit in plan.fused_for(program, cpu.memory._read_only, env):
        table.install(unit)
    return table


def _rcmp_values(cpu, table, found, pc, mechanism):
    """An RCMP's own values on *cpu*, or None when its binary has no such slice.

    Its slice's checkpoint keys ``_hk``, whether its scratch demand
    fits the SFile (``_ok``), the cell ``_sc`` it calls the slice
    through and, for the table mechanism, whether the slice fires at
    each residence (``_ft1``/``_ft2``/``_ftm``).
    """
    try:
        info = cpu.binary.info_for(found.consts["_sid"])
    except KeyError:
        return None
    sid = info.slice_id
    values = dict(
        found.consts,
        _sid=sid,
        _hk=frozenset((sid, leaf) for leaf in info.hist_leaf_ids),
        _ok=info.sreg_demand <= cpu.sfile.capacity,
        _sc=_slice_cell(cpu, table, info, pc),
    )
    if mechanism == "table":
        values["_ft1"], values["_ft2"], values["_ftm"] = cpu._rcmp_fire_table(info)
    return values


def _halt(cpu, pc, instruction):
    def f(cpu=cpu, pc=pc, instruction=instruction):
        cpu.pc = pc
        cpu._emit(instruction)
        cpu.halted = True
        return -1

    return f


def _thunk(cpu, pc, instruction):
    """Classic-handler fallback: exact semantics at dispatch-table speed.

    Covers the amnesic control opcodes, slice-region pcs, and any
    statically odd instruction whose classic handler should fault at
    runtime.
    """
    handler = cpu._dispatch.get(instruction.opcode)
    if handler is None:
        def f(cpu=cpu, pc=pc, instruction=instruction):
            cpu.pc = pc
            raise MachineFault(f"undecodable instruction {instruction}", pc=pc)

        return f

    def f(cpu=cpu, pc=pc, handler=handler, instruction=instruction):
        cpu.pc = pc
        handler(instruction)
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
# * **Faults mid-region** — every element that can fault (``LD``,
#   ``ST``, trapping compute) marks its offset in ``_n`` first; on any
#   exception the fused function writes its accumulators back, restores
#   ``_dynamic_index`` to the number of *completed* elements, counts the
#   elements classic would have counted (count-before-execute includes
#   the faulting one), records the faulting pc for the outer loop, and
#   re-raises.  A loop pass is a region ``[h, j]`` whose element 0 is
#   the header, so a fault in pass ``p`` takes the same path after the
#   ``p - 1`` completed passes.
# * **Budget exhaustion** — a fused region runs only after a hoisted
#   ``index + length <= max_instructions`` check; otherwise it runs its
#   first element's per-pc function and returns, and the rest of the
#   region runs per pc under the outer loop's classic per-instruction
#   check.  A loop checks its budget once per pass: it enters only when
#   a whole pass fits, and when the next pass would cross the budget it
#   writes back and returns ``h``; entered with less than a pass left,
#   it runs only the header's per-pc function.  Either way the outer
#   loop's check raises at the classic pc with classic counts.
# * **Loop exits** — the header taken returns its target; the pass
#   budget and faults exit as above.  Accumulators are hoisted once per
#   loop entry and written back on every exit.
# * **Deferred counts** — a fused function adds one hit per region run
#   or loop pass; ``_flush`` expands hits into per-pc and per-category
#   counts.  A loop pass counts its whole ``[h, j]``: the outer loop
#   counted the first header, and each pass's hit stands for the next
#   one, so the budget exit (which hands that header back to the outer
#   loop) takes one header count back.
# * **Traced/timeline/profiled runs** — traced runs decode per-pc only;
#   timeline and profiled runs take the classic loops.
# * **Entry by JR** — only a region start or loop header dispatches
#   fused code; every other pc, a loop body start included, keeps its
#   per-pc function, so a JR into a region or loop body runs per pc.
#
# Each program is analysed and rendered once, into its decode plan
# (:class:`_Plan`), and every decode of that program binds the plan to
# its own CPU.  Plans are keyed by program identity, so what fuses
# depends on that program alone, and a copy of a program never runs its
# original's code.  A program is therefore never edited in place once
# it has run on fast-batched: code that derives a variant (a poisoned
# slice, a moved REC) edits a copy.
# ----------------------------------------------------------------------


class _BatchTable:
    """One CPU's decode: function table, fused slices, deferred counts.

    The count arrays live on the table (not the run loop) because the
    fused functions bind them at decode time; the flush zeroes them so a
    later ``run()`` starts clean.  ``fused_counts`` holds one slot per
    fused function (a region run or a loop pass per hit), and
    ``fused_tails`` the ``(first, end, categories)`` of the pcs one hit
    retires beyond the outer loop's count.  ``region_spans`` lists the
    straight-line spans compiled into fused code (loop bodies included)
    and ``loops`` each fused loop's ``(header, loop-back)`` pcs.
    ``fault_pc`` is how a fused function reports the faulting element's
    pc to the outer loop (whose local ``pc`` still holds the entry pc
    when the function raises).  ``env`` is the CPU environment every
    function binds (see :func:`_environment`); ``slices`` caches fused
    slice traversals (None: not expressible); ``metered`` records
    whether a telemetry session was live at decode (RCMP then stays on
    the classic handler).
    """

    __slots__ = (
        "fns",
        "cats",
        "counts",
        "fused_counts",
        "fused_tails",
        "region_spans",
        "loops",
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
        self.fused_tails = []
        self.region_spans = []
        self.loops = []
        self.fault_pc = -1
        self.env = None
        self.slices = {}
        self.metered = metered

    def install(self, unit):
        """Bind one planned fused region or loop (see :meth:`_Plan.fused_for`).

        Its deferred-count slot is the next one, which is the slot its
        source counts into: a plan's units bind in the order they
        rendered.
        """
        self.fused_counts.append(0)
        self.fused_tails.append(unit.tail)
        self.fns[unit.at] = _bound(unit, self.env, fns=self.fns)
        self.region_spans.append(unit.span)
        if unit.loop is not None:
            self.loops.append(unit.loop)


class _Fused(NamedTuple):
    """One planned function: its code and how a CPU binds it.

    ``recipe`` holds one ``(kind, arg)`` entry per parameter, in
    parameter order (see :func:`_bound`).  A fused region or loop also
    names the pc whose function it replaces (``at``), the ``(first,
    end, categories)`` its deferred count expands to (``tail``), its
    straight-line span and, for a loop, its ``(header, loop-back)``
    pcs; a per-pc function or a fused slice leaves them None.
    """

    code: CodeType
    recipe: tuple
    at: Optional[int] = None
    tail: Optional[tuple] = None
    span: Optional[tuple] = None
    loop: Optional[tuple] = None


def _planned(name, lines, recipe, filename, names, **where):
    """A :class:`_Fused` for ``def name`` over *lines*.

    Its parameters are the names the lines read that *recipe* binds or,
    failing that, the CPU environment does (*names*: its keys); the
    lines' other names are their own locals.
    """
    bound = {}
    for token in set("\n".join(lines).translate(_SEPARATORS).split()):
        found = token.partition(".")[0]  # ``_a._b`` reads ``_a``
        if found in recipe:
            bound[found] = recipe[found]
        elif found in names:
            bound[found] = ("name", found)
    params = sorted(bound)
    code = _function_code(name, lines, params, filename)
    return _Fused(code, tuple(bound[param] for param in params), **where)


class _Plan:
    """What decoding one program yields that no CPU state enters.

    Each pc's :class:`_Class`, made once by the program's first decode
    of any kind; the region analysis (proven self-loops and batchable
    regions), made by its first untraced decode; and, rendered on
    first demand from the classes and the instructions, every fused
    function: regions and loops per set of read-only ranges (the only
    CPU input their source reads), slices per ``(slice id, SFile
    capacity, concurrent_offload)``.  A plan holds classes, code
    objects and binding recipes, never a CPU, a trace or a
    :class:`_BatchTable`; each decode binds its own environment.
    """

    __slots__ = ("classes", "analysis", "fused", "slices")

    def __init__(self, program):
        self.classes = [
            _classify(program, pc, instruction)
            for pc, instruction in enumerate(program.instructions)
        ]
        self.analysis = None
        self.fused = {}
        self.slices = {}

    def fused_for(self, program, read_only, names):
        """The fused loops and regions over *read_only*, in install order.

        *names* are the keys of the CPU environment that binds them;
        every environment binds every name fused code reads.
        """
        units = self.fused.get(read_only)
        if units is None:
            units = self.fused[read_only] = self._render(program, read_only, names)
        return units

    def _render(self, program, read_only, names):
        # Proven self-loops fuse whole; every other batchable region
        # outside a slice fuses on its own, and in-slice regions stay
        # per pc.  A unit's index is its deferred-count slot.
        if self.analysis is None:
            # Imported lazily: the staticcheck package sits above the
            # machine layer.
            from ..staticcheck.regions import analyze_regions

            self.analysis = analyze_regions(program)
        scope = _Scope(program, self.classes, read_only, names)
        units = []
        looped = set()
        for loop in self.analysis.loops:
            unit = _render_loop(scope, loop, len(units))
            if unit is not None:
                units.append(unit)
                looped.add(loop.body)
        for region in self.analysis.batchable_regions:
            if region not in looped and not region.in_slice:
                unit = _render_region(scope, region, len(units))
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


def _plan(program):
    """The decode plan of *program*, built by its first decode.

    Held weakly: the entry leaves when the program dies, and
    :func:`clear_codegen_caches` drops every plan.
    """
    key = _plan_key(program)
    entry = _PLANS.get(key)
    if entry is None:
        entry = _PLANS[key] = (
            weakref.ref(program, lambda _, key=key: _PLANS.pop(key, None)),
            _Plan(program),
        )
    return entry[1]


class _Scope(NamedTuple):
    """What a plan renders fused regions and loops from."""

    program: object
    classes: list
    read_only: tuple
    names: object


def _fused_lines(scope, pc, recipe, families, hooks):
    """Source lines of the instruction at *pc* inside a fused function.

    Registers read ``_r[n]`` directly; int immediates render as
    literals, and other constants, costs and evaluators bind per pc
    through *recipe*.  *hooks* renders the instruction's fault point and
    control transfer.  Returns ``(lines, placeholders)``, or None when
    the instruction is not of one of *families* or cannot be rendered
    (odd operands, missing evaluator).
    """
    instruction = scope.program.instructions[pc]
    found = scope.classes[pc]
    if found is None or found.family not in families:
        return None
    family = found.family
    subs = dict(
        _HOISTED, pc=str(pc), nx=str(pc + 1),
        cmp=_BRANCH_OPS.get(instruction.opcode, ""),
        ro=_read_only_test(scope.read_only),
    )
    if "_tg" in found.consts:
        subs["tg"] = str(found.consts["_tg"])
    kinds = []
    for n, src in enumerate(instruction.srcs):
        if isinstance(src, Reg):
            subs[f"s{n}"] = f"_r[{src.index}]"
            kinds.append("rt")
        else:
            kinds.append(_const_kind(src.value))
            if kinds[-1] in ("int", "big"):
                subs[f"s{n}"] = repr(src.value)
            else:
                subs[f"s{n}"] = f"_k{pc}_{n}"
                recipe[f"_k{pc}_{n}"] = ("value", src.value)
    # r0 writes are dropped (classic ``write_register`` discards them).
    dest = instruction.dest.index if family in _WRITES_DEST else 0
    hooks = dict(
        hooks, dest=lambda value: [f"_r[{dest}] = {value}"] if dest else []
    )
    items = _description(family, instruction.opcode, tuple(kinds))
    placeholders = _formats(items)[1]
    if "e" in placeholders:
        subs["e"], subs["t"] = f"_e{pc}", f"_t{pc}"
        recipe[subs["e"]], recipe[subs["t"]] = _cost(*found.cost)
    if "ev" in placeholders:
        subs["ev"] = f"_ev{pc}"
        recipe[subs["ev"]] = ("value", found.consts["_ev"])
    flags = {"time", "ea", "ro"} if scope.read_only else {"time", "ea"}
    return _render(items, subs, flags, hooks), placeholders


def _fused_body(scope, start, end, recipe, keys, first_mark):
    """Lines of the fusable run ``[start, end)``; None if one won't render.

    Each element that can fault marks its fault point as ``_n``,
    counted from *first_mark* at ``start``.
    """
    lines = []
    for pc in range(start, end):
        mark = f"_n = {pc - start + first_mark}"
        rendered = _fused_lines(
            scope, pc, recipe, _FUSABLE, {"mark": lambda _, m=mark: [m]}
        )
        if rendered is None:
            return None
        lines += rendered[0]
        keys |= rendered[1]
    return lines


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


def _render_region(scope, region, rid):
    """Render the single-dispatch function of one batchable region.

    *rid* is its deferred-count slot.  Entered with less budget than its
    length, it runs only its first element's per-pc function.  Returns
    None when an element cannot be rendered (odd operands, missing
    evaluator) — the region then simply stays per-pc.
    """
    program = scope.program
    start, end = region.start, region.end
    length = end - start
    recipe = {"_first": ("fn", start)}
    keys = set()
    lines = _fused_body(scope, start, end, recipe, keys, 0)
    if lines is None:
        return None

    # Accumulators live in locals for the fused body and are written
    # back on every exit — success *and* fault.  This is bit-identical
    # to charging element by element: the float additions happen in the
    # same order on the same running values (``_service_miss`` never
    # touches the energy groups or the time account), and a faulting
    # element raises before any of its charge lines run.
    prologue, writeback = _hoist(keys)
    source = [
        "    _i0 = _cpu._dynamic_index",
        f"    if _i0 + {length} > _cpu.max_instructions:",
        "        return _first()",
        "    _n = 0",
        *("    " + line for line in prologue),
        "    try:",
        *("        " + line for line in lines),
        "    except BaseException:",
        *("        " + line for line in writeback),
        "        _cpu._dynamic_index = _i0 + _n",
        f"        _tbl.fault_pc = {start} + _n",
        f"        _flush(_counts, {start}, _n)",
        "        raise",
        *("    " + line for line in writeback),
        f"    _cpu._dynamic_index = _i0 + {length}",
        f"    _fc[{rid}] += 1",
        f"    return {end}",
    ]
    return _planned(
        "_region", source, recipe, f"<region {program.name}:{start}-{end}>",
        scope.names,
        at=start,
        tail=(start + 1, end, _categories(program, start + 1, end)),
        span=(start, end),
    )


def _render_loop(scope, loop, rid):
    """Render the one-dispatch function of one self-loop at its header.

    One pass is the header, the body region and the loop-back ``JMP``,
    rendered from their descriptions: the header's taken ``goto``
    leaves the ``while`` loop and the loop-back's falls into the next
    pass unless :data:`_LOOP_BACK_EXIT` holds.  Entered with less than a
    pass left, it runs only the header's per-pc function; the body start
    keeps its per-pc function.  *rid* is its deferred-count slot.
    Returns None when an element cannot be rendered: the body region
    then fuses on its own.
    """
    program = scope.program
    header, back, length = loop.header, loop.back, loop.length
    recipe = {"_hdr": ("fn", header)}
    keys = set()
    head = _fused_lines(
        scope, header, recipe, {"branch"}, {"goto": lambda _: ["break"]}
    )
    body = _fused_body(scope, header + 1, back, recipe, keys, 1)
    jump = _fused_lines(scope, back, recipe, {"jmp"}, {"goto": lambda _: []})
    if head is None or body is None or jump is None:
        return None
    target = scope.classes[header].consts["_tg"]  # where the header exits to
    keys |= head[1] | jump[1]
    prologue, writeback = _hoist(keys)
    source = [
        "    _i0 = _cpu._dynamic_index",
        "    _mx = _cpu.max_instructions",
        f"    if _i0 + {length} > _mx:",
        "        return _hdr()",
        "    _p = 0",
        "    _n = 0",
        *("    " + line for line in prologue),
        "    try:",
        "        while True:",
        *("            " + line for line in head[0] + body + jump[0]),
        "            _p += 1",
        f"            _i0 += {length}",
        "            if " + _LOOP_BACK_EXIT.format(length=length) + ":",
        *("                " + line for line in writeback),
        "                _cpu._dynamic_index = _i0",
        f"                _fc[{rid}] += _p",
        f"                _counts[{header}] -= 1",
        f"                return {header}",
        "    except BaseException:",
        *("        " + line for line in writeback),
        "        _cpu._dynamic_index = _i0 + _n",
        f"        _tbl.fault_pc = {header} + _n",
        f"        _fc[{rid}] += _p",
        f"        _flush(_counts, {header}, _n)",
        "        raise",
        *("    " + line for line in writeback),
        "    _cpu._dynamic_index = _i0 + 1",
        f"    _fc[{rid}] += _p",
        f"    return {target}",
    ]
    return _planned(
        "_loop", source, recipe, f"<loop {program.name}:{header}-{back}>",
        scope.names,
        at=header,
        tail=(header, back + 1, _categories(program, header, back + 1)),
        span=(header + 1, back),
        loop=(header, back),
    )


#: One checkpointed operand read, inlined from ``HistoryTable.read``: a
#: present entry counts and moves to the MRU end; a missing one calls
#: the method, which counts the miss and raises its ``KeyError``.
_HIST_READ = (
    "_he = _hent.get($key)",
    "if _he is None:",
    "    _hr($sid, $leaf, $slot)",
    "$hrd += 1",
    "_hent.move_to_end($key)",
    "$out = _he[$slot]",
)

#: One slice-instruction fetch, inlined from ``InstructionBuffer.fetch``
#: on a hit; a miss calls the method, which fills and may evict.
_IBUFF_FETCH = (
    "if $pc in _ibe:",
    "    $ih += 1",
    "    _ibe.move_to_end($pc)",
    "else:",
    "    _ibf($pc)",
)


def _cost(method, *args):
    """Recipe entries binding a model cost's energy and time."""
    return (
        ("cost", (method, args, "energy_nj")),
        ("cost", (method, args, "time_ns")),
    )


def _render_slice(program, slice_id, capacity, offload, names):
    """Render one slice as a single register-resident traversal.

    Slices are straight-line regions by construction (formation never
    admits control flow), so recomputation renders the compute
    description too: one generated function per slice replays what
    :meth:`repro.core.amnesic_cpu.AmnesicCPU._traverse_slice` does for
    a run without a timeline.  Scratch registers live in locals
    (``_v<n>``), so the Renamer and SFile see no call at all: every
    traversal starts and ends with them reset, and their counters only
    depend on the slice's static read/write sequence, so they are added
    as constants on exit.  IBuff fetches and Hist reads run inline in classic order,
    LRU promotions included.  On a fault, ``_p`` names the fault point
    (a Hist read or an element's compute), whose static prefix gives
    what the interpreter had counted by then (count-before-execute, so
    the faulting element too); accumulators are written back on both
    exits.  An evaluator fault leaves tagged with the element's pc; the
    scheduler discards it either way.  *capacity* is the SFile's and
    *offload* the CPU's ``concurrent_offload``; costs bind per CPU.

    Returns ``None`` for slices the generator cannot express — among
    them a slice that reads a scratch register before writing it, or
    writes more distinct ones than the SFile holds; the caller then
    interprets them, which faults at the identical element.
    """
    region = program.slices[slice_id]
    start, end = region.start, region.end
    length = end - 1 - start
    recipe = {}
    recipe["_hce"], recipe["_hct"] = _cost("hist_read_cost")
    flags = () if offload else ("time",)

    lines = []
    tally = {}
    points = []
    written = set()
    # Renamer requests, SFile reads, SFile writes so far.
    requests = reads = writes = 0

    def mark(j, counted):
        points.append((j, counted, requests, reads, writes, len(written)))
        lines.append(f"_p = {len(points) - 1}")

    for j, pc in enumerate(range(start, end - 1)):
        instruction = program.instruction_at(pc)
        evaluator = _EVALUATORS.get(instruction.opcode)
        dest = instruction.dest
        if evaluator is None or not isinstance(dest, SReg):
            return None
        category = instruction.category
        tally[category] = tally.get(category, 0) + 1
        counted = tuple(tally.items())
        lines += _render(_IBUFF_FETCH, dict(_HOISTED, pc=str(pc)), (), {})
        recipe[f"_e{j}"], recipe[f"_t{j}"] = _cost("slice_instruction_cost", category)
        subs = dict(_HOISTED, pc=str(pc), e=f"_e{j}", t=f"_t{j}", ev=f"_ev{j}")
        kinds = []
        for n, src in enumerate(instruction.srcs):
            kinds.append("rt")
            if isinstance(src, SReg):
                if src.index not in written:
                    return None
                requests += 1
                reads += 1
                subs[f"s{n}"] = f"_v{src.index}"
            elif isinstance(src, HistRef):
                name = subs[f"s{n}"] = f"_a{j}_{n}"
                mark(j, counted)
                lines += _render(
                    _HIST_READ,
                    dict(
                        _HOISTED, key=repr((slice_id, src.leaf_id)),
                        sid=str(slice_id), leaf=str(src.leaf_id),
                        slot=str(src.slot), out=name,
                    ),
                    (),
                    {},
                )
                lines.append("_gh += _hce")
                if not offload:
                    lines.append("_tt += _hct")
                lines.append("_hn += 1")
            elif isinstance(src, Reg) and src.index:
                subs[f"s{n}"] = f"_r[{src.index}]"
            elif isinstance(src, Reg):
                subs[f"s{n}"], kinds[-1] = "0", "int"
            elif isinstance(src, Imm):
                subs[f"s{n}"] = f"_c{j}_{n}"
                recipe[f"_c{j}_{n}"] = ("value", src.value)
                kinds[-1] = _const_kind(src.value)
            else:
                return None
        mark(j, counted)
        hooks = {"dest": lambda value, d=dest.index: [f"_v{d} = {value}"]}
        items = _compute_description(instruction.opcode, tuple(kinds))
        if "ev" in _formats(items)[1]:
            recipe[f"_ev{j}"] = ("value", evaluator)
        lines += _render(items, subs, flags, hooks)
        requests += 1
        writes += 1
        written.add(dest.index)
        if len(written) > capacity:
            return None

    rtn = program.instruction_at(end - 1)
    result = rtn.dest
    if (
        rtn.opcode is not Opcode.RTN
        or not isinstance(result, SReg)
        or result.index not in written
    ):
        return None
    requests += 1
    reads += 1
    recipe["_re"], recipe["_rt"] = _cost("rtn_cost")
    recipe["_pref"] = ("value", tuple(points))
    tally[rtn.category] = tally.get(rtn.category, 0) + 1
    success_counts = []
    for i, (category, count) in enumerate(
        sorted(tally.items(), key=lambda item: item[0].name)
    ):
        recipe[f"_cat{i}"] = ("value", category)
        success_counts.append(f"_bc[_cat{i}] += {count}")

    prologue, writeback = _hoist(("tt", "gn", "ga", "gh", "hn", "hrd", "ih"))
    fault = [
        "_j, _cats, _rq, _rd, _wr, _al = _pref[_p]",
        "_st.dynamic_instructions += _j + 1",
        "_st.slice_instructions_executed += _j + 1",
        "for _cat, _n in _cats:",
        "    _bc[_cat] += _n",
        "_sfs.rename_requests += _rq",
        "_sfs.reads += _rd",
        "_sfs.writes += _wr",
        "if _sfs.high_water < _al:",
        "    _sfs.high_water = _al",
        *writeback,
        "_cpu._dynamic_index += _j",
        "raise",
    ]
    success = [
        f"_st.dynamic_instructions += {length + 1}",
        f"_st.slice_instructions_executed += {length}",
        *success_counts,
        f"_sfs.rename_requests += {requests}",
        f"_sfs.reads += {reads}",
        f"_sfs.writes += {writes}",
        f"if _sfs.high_water < {len(written)}:",
        f"    _sfs.high_water = {len(written)}",
        "_ga += _re",
        *([] if offload else ["_tt += _rt"]),
        *writeback,
        f"_cpu._dynamic_index += {length + 1}",
        f"return _v{result.index}",
    ]
    source = [
        "    _p = 0",
        *("    " + line for line in prologue),
        "    try:",
        *("        " + line for line in lines),
        "    except BaseException:",
        *("        " + line for line in fault),
        *("    " + line for line in success),
    ]
    return _planned(
        "_slice", source, recipe, f"<slice {program.name}:{slice_id}>", names
    )


def _slice_traversal(cpu, table, slice_id):
    """The fused traversal of one slice, bound once per decode."""
    try:
        return table.slices[slice_id]
    except KeyError:
        env = table.env
        unit = _plan(cpu.program).slice_for(
            cpu.program, slice_id, cpu.sfile.capacity, cpu.concurrent_offload, env
        )
        fused = table.slices[slice_id] = None if unit is None else _bound(unit, env)
        return fused


def _slice_cell(cpu, table, info, pc):
    """The one-slot cell an RCMP function calls its slice through.

    The slice fuses on its first fire, so slices that never fire cost
    no code generation; one the generator cannot express runs the
    interpreted reference, which reads the RCMP's pc for its faults.
    """

    def first():
        traverse = _slice_traversal(cpu, table, info.slice_id)
        if traverse is None:
            def traverse():
                cpu.pc = pc
                return cpu._traverse_slice(info)

        cell[0] = traverse
        return traverse()

    cell = [first]
    return cell


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


class BatchedExecutionMixin:
    """Run on the generated fast path instead of the classic loop.

    Mix in ahead of :class:`CPU` (or a subclass).  At predecode, a CPU
    binds its program's decode plan (:class:`_Plan`): each classified
    pc's per-pc function and, untraced, the fused code — proven
    self-loops fuse whole, every other batchable region outside a slice
    fuses on its own, and in-slice regions stay per-pc.  On amnesic
    machines, slice traversals run fused too (unless a timeline is
    attached), and RCMP renders per pc when :meth:`_rcmp_mechanism`
    names one.  See the module docstring for the backend contract.
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
        state = dict(super().__getstate__())
        state.pop("_batch_decode", None)
        return state

    def _rcmp_mechanism(self):
        """The :data:`_MECHANISMS` key RCMP decides by (None: classic)."""
        return None

    def _traverse_slice(self, info):
        if self._timeline is None:
            # Nothing on the interpreted path emits an observable event
            # without a timeline, so the fused traversal is exact.
            fused = _slice_traversal(self, self._decoded(), info.slice_id)
            if fused is not None:
                return fused()
        return super()._traverse_slice(info)

    def _run_loop(self) -> None:
        if self._timeline is not None:
            # Timelines capture mid-run state per retired instruction:
            # the classic loop keeps them exact.
            return super()._run_loop()
        table = self._decoded()
        fns = table.fns
        counts = table.counts
        max_instructions = self.max_instructions
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
            self._flush(table, pc)
        self.finalize()

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
                first, end, categories = table.fused_tails[rid]
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
