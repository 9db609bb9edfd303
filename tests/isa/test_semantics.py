"""Value semantics: checked against Python arithmetic, incl. 64-bit wrap."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ArithmeticFault
from repro.isa import Opcode, branch_taken, evaluate, wrap_int64

int64s = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)


@given(int64s, int64s)
def test_add_wraps_like_two_complement(a, b):
    assert evaluate(Opcode.ADD, (a, b)) == wrap_int64(a + b)


@given(int64s, int64s)
def test_mul_wraps(a, b):
    assert evaluate(Opcode.MUL, (a, b)) == wrap_int64(a * b)


@given(int64s)
def test_wrap_is_idempotent(a):
    assert wrap_int64(wrap_int64(a)) == wrap_int64(a)


@given(int64s)
def test_wrap_range(a):
    wrapped = wrap_int64(a)
    assert -(2 ** 63) <= wrapped <= 2 ** 63 - 1


@given(int64s, int64s.filter(lambda v: v != 0))
def test_div_truncates_toward_zero(a, b):
    expected = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        expected = -expected
    assert evaluate(Opcode.DIV, (a, b)) == wrap_int64(expected)


@given(int64s, int64s.filter(lambda v: v != 0))
def test_div_rem_identity(a, b):
    quotient = evaluate(Opcode.DIV, (a, b))
    remainder = evaluate(Opcode.REM, (a, b))
    assert wrap_int64(quotient * b + remainder) == wrap_int64(a)


def test_division_by_zero_faults():
    with pytest.raises(ArithmeticFault):
        evaluate(Opcode.DIV, (1, 0))
    with pytest.raises(ArithmeticFault):
        evaluate(Opcode.REM, (1, 0))
    with pytest.raises(ArithmeticFault):
        evaluate(Opcode.FDIV, (1.0, 0.0))


def test_fsqrt_negative_faults():
    with pytest.raises(ArithmeticFault):
        evaluate(Opcode.FSQRT, (-1.0,))


@given(st.integers(min_value=0, max_value=127))
def test_shift_amount_masked_to_63(shift):
    result = evaluate(Opcode.SHL, (1, shift))
    assert result == wrap_int64(1 << (shift & 63))


def test_comparisons():
    assert evaluate(Opcode.SLT, (1, 2)) == 1
    assert evaluate(Opcode.SLT, (2, 1)) == 0
    assert evaluate(Opcode.SLE, (2, 2)) == 1
    assert evaluate(Opcode.SEQ, (3, 3)) == 1
    assert evaluate(Opcode.SNE, (3, 3)) == 0


def test_fma():
    assert evaluate(Opcode.FMA, (2.0, 3.0, 1.0)) == 7.0


def test_mov_and_li_are_identity():
    assert evaluate(Opcode.MOV, (42,)) == 42
    assert evaluate(Opcode.LI, (4.5,)) == 4.5


def test_cvt_roundtrip():
    assert evaluate(Opcode.CVTIF, (7,)) == 7.0
    assert evaluate(Opcode.CVTFI, (7.9,)) == 7


INDEFINITE = -(2 ** 63)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_floats_convert_to_the_integer_indefinite(value):
    # As x86's cvttsd2si: no integer represents them.
    assert evaluate(Opcode.CVTFI, (value,)) == INDEFINITE
    assert evaluate(Opcode.ADD, (value, 1)) == INDEFINITE + 1
    assert evaluate(Opcode.MIN, (value, 0)) == INDEFINITE
    assert evaluate(Opcode.CVTIF, (value,)) == float(INDEFINITE)


@pytest.mark.parametrize("sign", [1, -1])
def test_ints_beyond_the_double_range_convert_to_infinity(sign):
    # IEEE-754 round-to-nearest overflows to a signed infinity.
    big = sign * 10 ** 400
    assert evaluate(Opcode.FADD, (big, 1.0)) == sign * math.inf
    assert evaluate(Opcode.FMUL, (big, 2)) == sign * math.inf
    assert evaluate(Opcode.FABS, (big,)) == math.inf
    assert evaluate(Opcode.FADD, (sign * 2 ** 1023, 0.0)) == sign * 2.0 ** 1023


def test_finite_conversions_are_unchanged():
    assert evaluate(Opcode.CVTFI, (-7.9,)) == -7
    assert evaluate(Opcode.CVTFI, (2.0 ** 64 + 2.0 ** 12,)) == 2 ** 12
    assert evaluate(Opcode.FADD, (2 ** 53 + 1, 0.0)) == 2.0 ** 53


@given(int64s, int64s)
def test_branch_conditions(a, b):
    assert branch_taken(Opcode.BEQ, a, b) == (a == b)
    assert branch_taken(Opcode.BNE, a, b) == (a != b)
    assert branch_taken(Opcode.BLT, a, b) == (a < b)
    assert branch_taken(Opcode.BGE, a, b) == (a >= b)


def test_branch_on_non_branch_faults():
    with pytest.raises(ArithmeticFault):
        branch_taken(Opcode.ADD, 1, 2)


def test_evaluate_non_compute_faults():
    with pytest.raises(ArithmeticFault):
        evaluate(Opcode.LD, (1, 2))


@given(st.floats(allow_nan=False, allow_infinity=False, width=32),
       st.floats(allow_nan=False, allow_infinity=False, width=32))
def test_fp_ops_match_python(a, b):
    assert evaluate(Opcode.FADD, (a, b)) == a + b
    assert evaluate(Opcode.FSUB, (a, b)) == a - b
    assert evaluate(Opcode.FMUL, (a, b)) == a * b
