"""Pure value semantics for the compute opcodes.

The classic CPU interpreter and the amnesic recomputation engine both
evaluate instructions through this module, which guarantees that a
recomputed value is bit-identical to the originally computed one — the
correctness invariant of amnesic execution.

Integer results wrap to 64-bit two's complement, matching the 64-bit
datapath the paper assumes (Table 1 compares 64-bit loads against 64-bit
FMAs).  Floating point uses the host ``float`` (IEEE-754 double).

Conversions between the two never fault, as on the paper's x86
platform: a float converts to an integer by truncation (``cvttsd2si``),
and NaN and ±inf, which no integer represents, convert to the
integer-indefinite value ``-2**63``; an integer converts to the nearest
double, and one beyond the double range rounds to ±inf (IEEE-754
round-to-nearest).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Sequence, Union

from ..errors import ArithmeticFault
from .opcodes import Opcode

Value = Union[int, float]

_INT64_MASK = (1 << 64) - 1
_INT64_SIGN = 1 << 63

#: What a NaN or infinite float converts to: x86's integer-indefinite
#: value, the one ``cvttsd2si`` returns for them.
_INT64_INDEFINITE = -(1 << 63)


def wrap_int64(value: int) -> int:
    """Wrap an unbounded Python int to signed 64-bit two's complement."""
    value &= _INT64_MASK
    if value & _INT64_SIGN:
        value -= 1 << 64
    return value


def _to_int(value: Value) -> int:
    if isinstance(value, float):
        if not math.isfinite(value):
            return _INT64_INDEFINITE
        return wrap_int64(int(value))
    return wrap_int64(value)


def _to_float(value: Value) -> float:
    try:
        return float(value)
    except OverflowError:  # an int beyond the double range
        return math.inf if value > 0 else -math.inf


def _int_div(a: int, b: int) -> int:
    if b == 0:
        raise ArithmeticFault("integer division by zero")
    # C-style truncating division, as in real ISAs.
    quotient = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        quotient = -quotient
    return wrap_int64(quotient)


def _int_rem(a: int, b: int) -> int:
    if b == 0:
        raise ArithmeticFault("integer remainder by zero")
    return wrap_int64(a - _int_div(a, b) * b)


def _fdiv(a: float, b: float) -> float:
    if b == 0.0:
        raise ArithmeticFault("floating-point division by zero")
    return a / b


def _fsqrt(a: float) -> float:
    if a < 0.0:
        raise ArithmeticFault("square root of negative value")
    return math.sqrt(a)


_EVALUATORS: Dict[Opcode, Callable[..., Value]] = {
    Opcode.ADD: lambda a, b: wrap_int64(_to_int(a) + _to_int(b)),
    Opcode.SUB: lambda a, b: wrap_int64(_to_int(a) - _to_int(b)),
    Opcode.MUL: lambda a, b: wrap_int64(_to_int(a) * _to_int(b)),
    Opcode.DIV: lambda a, b: _int_div(_to_int(a), _to_int(b)),
    Opcode.REM: lambda a, b: _int_rem(_to_int(a), _to_int(b)),
    Opcode.AND: lambda a, b: wrap_int64(_to_int(a) & _to_int(b)),
    Opcode.OR: lambda a, b: wrap_int64(_to_int(a) | _to_int(b)),
    Opcode.XOR: lambda a, b: wrap_int64(_to_int(a) ^ _to_int(b)),
    Opcode.SHL: lambda a, b: wrap_int64(_to_int(a) << (_to_int(b) & 63)),
    Opcode.SHR: lambda a, b: wrap_int64(_to_int(a) >> (_to_int(b) & 63)),
    Opcode.SLT: lambda a, b: int(_to_int(a) < _to_int(b)),
    Opcode.SLE: lambda a, b: int(_to_int(a) <= _to_int(b)),
    Opcode.SEQ: lambda a, b: int(a == b),
    Opcode.SNE: lambda a, b: int(a != b),
    Opcode.MIN: lambda a, b: min(_to_int(a), _to_int(b)),
    Opcode.MAX: lambda a, b: max(_to_int(a), _to_int(b)),
    Opcode.FADD: lambda a, b: _to_float(a) + _to_float(b),
    Opcode.FSUB: lambda a, b: _to_float(a) - _to_float(b),
    Opcode.FMUL: lambda a, b: _to_float(a) * _to_float(b),
    Opcode.FDIV: lambda a, b: _fdiv(_to_float(a), _to_float(b)),
    Opcode.FMA: lambda a, b, c: _to_float(a) * _to_float(b) + _to_float(c),
    Opcode.FMIN: lambda a, b: min(_to_float(a), _to_float(b)),
    Opcode.FMAX: lambda a, b: max(_to_float(a), _to_float(b)),
    Opcode.FSQRT: lambda a: _fsqrt(_to_float(a)),
    Opcode.FABS: lambda a: abs(_to_float(a)),
    Opcode.FNEG: lambda a: -_to_float(a),
    Opcode.CVTIF: lambda a: _to_float(_to_int(a)),
    Opcode.CVTFI: lambda a: _to_int(a),
    Opcode.MOV: lambda a: a,
    Opcode.LI: lambda a: a,
}

_BRANCH_CONDITIONS: Dict[Opcode, Callable[[Value, Value], bool]] = {
    Opcode.BEQ: lambda a, b: a == b,
    Opcode.BNE: lambda a, b: a != b,
    Opcode.BLT: lambda a, b: a < b,
    Opcode.BGE: lambda a, b: a >= b,
}


def evaluate(opcode: Opcode, operands: Sequence[Value]) -> Value:
    """Evaluate a compute *opcode* over already-resolved operand values."""
    try:
        fn = _EVALUATORS[opcode]
    except KeyError:
        raise ArithmeticFault(f"{opcode.value} has no value semantics") from None
    return fn(*operands)


def branch_taken(opcode: Opcode, a: Value, b: Value) -> bool:
    """Resolve a conditional branch."""
    try:
        fn = _BRANCH_CONDITIONS[opcode]
    except KeyError:
        raise ArithmeticFault(f"{opcode.value} is not a branch") from None
    return fn(a, b)
