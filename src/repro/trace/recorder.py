"""The profiling run: one traced classic execution.

:func:`profile_program` runs one classic execution with the dependence
tracker attached — the reproduction's equivalent of the paper's "runtime
profiler in Pin, which collects dependency information for binary
generation" — and derives the hit/miss statistics Sniper supplies
(section 4) and the load value localities from the trace's load columns
afterwards, so the run feeds a single tracer.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional

from ..isa.program import Program
from .dependence import DependenceTracker
from .locality import ValueLocalityTracker
from .profile import LoadProfiler

if TYPE_CHECKING:  # circular at import time: machine.cpu emits trace events
    from ..energy.model import EnergyModel
    from ..machine.cpu import CPU
    from ..machine.stats import RunStats


@dataclasses.dataclass
class ProfileResult:
    """Everything a profiling run produced."""

    dependence: DependenceTracker
    loads: LoadProfiler
    locality: ValueLocalityTracker
    stats: "RunStats"
    cpu: "CPU"

    @property
    def dynamic_instructions(self) -> int:
        return self.stats.dynamic_instructions


def profile_program(
    program: Program,
    model: "EnergyModel",
    max_instructions: Optional[int] = None,
    backend: Optional[str] = None,
) -> ProfileResult:
    """Run *program* classically under the dependence tracker.

    The run's CPU is kept on the result: its statistics, energy account
    and final state are exactly those of an untraced classic run with
    the same budget, so it doubles as the classic baseline.

    *backend* selects the execution backend for the profiling run (None
    resolves from the environment).  Backends are trace-equivalent by
    contract — the fast backend's traced closures emit the identical
    event stream — so the profile, and everything compiled from it, is
    the same whichever backend gathers it.
    """
    from ..core.backend import resolve_backend
    from ..machine.cpu import DEFAULT_MAX_INSTRUCTIONS
    from ..telemetry.runtime import get_telemetry

    dependence = DependenceTracker()
    cpu_cls = resolve_backend(backend).cpu_cls
    cpu = cpu_cls(
        program,
        model,
        tracer=dependence,
        max_instructions=max_instructions or DEFAULT_MAX_INSTRUCTIONS,
    )
    with get_telemetry().span("profile", program=program.name) as span:
        stats = cpu.run()
        span.set(dynamic_instructions=stats.dynamic_instructions)
    return ProfileResult(
        dependence=dependence,
        loads=LoadProfiler.from_trace(dependence),
        locality=ValueLocalityTracker.from_trace(dependence),
        stats=stats,
        cpu=cpu,
    )
