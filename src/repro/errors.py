"""Exception hierarchy for the AMNESIAC reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch the whole family with a single ``except`` clause while
still being able to discriminate the precise failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ValidationError(ReproError):
    """A program failed static validation (bad operands, dangling labels)."""


class MachineFault(ReproError):
    """The simulated machine hit a fault while executing a program."""

    def __init__(self, message: str, pc: int | None = None):
        if pc is not None:
            message = f"{message} (pc={pc})"
        super().__init__(message)
        self.pc = pc


class MemoryFault(MachineFault):
    """An access touched an unmapped or protected memory word."""


class ArithmeticFault(MachineFault):
    """Undefined arithmetic, e.g. integer division by zero."""


class ExecutionLimitExceeded(MachineFault):
    """The dynamic instruction budget was exhausted (likely livelock)."""


class CompilationError(ReproError):
    """The amnesic compiler pass could not transform a program."""


class RecomputationMismatch(ReproError):
    """A recomputed value differed from the value the load would return.

    This is the safety invariant of amnesic execution: traversing
    RSlice(v) must regenerate exactly the value ``v`` that the eliminated
    load would have read.  Verification mode raises this error on any
    divergence; production mode would silently produce wrong results, so
    tests always run with verification enabled.
    """

    def __init__(self, slice_id: int, expected: object, actual: object, pc: int):
        super().__init__(
            f"RSlice {slice_id} recomputed {actual!r} but the eliminated "
            f"load at pc={pc} would have read {expected!r}"
        )
        self.slice_id = slice_id
        self.expected = expected
        self.actual = actual
        self.pc = pc


class SchedulerError(ReproError):
    """The amnesic scheduler reached an inconsistent runtime state."""


class FuzzError(ReproError):
    """A fuzz program spec is malformed or cannot be materialised."""
