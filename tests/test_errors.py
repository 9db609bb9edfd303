"""Exception hierarchy contracts."""

import pytest

from repro.errors import (
    ArithmeticFault,
    CompilationError,
    ExecutionLimitExceeded,
    MachineFault,
    MemoryFault,
    RecomputationMismatch,
    ReproError,
    SchedulerError,
    ValidationError,
)


@pytest.mark.parametrize(
    "error_type",
    [
        ValidationError, MachineFault, MemoryFault,
        ArithmeticFault, ExecutionLimitExceeded, CompilationError,
        SchedulerError,
    ],
)
def test_all_derive_from_repro_error(error_type):
    assert issubclass(error_type, ReproError)


def test_machine_fault_carries_pc():
    fault = MachineFault("boom", pc=42)
    assert fault.pc == 42
    assert "pc=42" in str(fault)


def test_machine_fault_without_pc():
    fault = MachineFault("boom")
    assert fault.pc is None
    assert str(fault) == "boom"


def test_memory_fault_is_machine_fault():
    assert issubclass(MemoryFault, MachineFault)
    assert issubclass(ArithmeticFault, MachineFault)
    assert issubclass(ExecutionLimitExceeded, MachineFault)


def test_recomputation_mismatch_payload():
    mismatch = RecomputationMismatch(3, expected=10, actual=11, pc=99)
    assert mismatch.slice_id == 3
    assert mismatch.expected == 10
    assert mismatch.actual == 11
    assert "RSlice 3" in str(mismatch)
    assert "pc=99" in str(mismatch)


def test_one_except_clause_catches_everything():
    for error in (ValidationError("x"), RecomputationMismatch(0, 1, 2, 3)):
        try:
            raise error
        except ReproError:
            pass
