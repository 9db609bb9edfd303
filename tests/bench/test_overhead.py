"""Telemetry-off overhead guard for the interpreter hot loop.

This PR added per-instruction observability hooks to ``CPU._emit`` (a
timeline attribute load + ``is not None`` test) and a telemetry lookup
per ``run()``.  The acceptance bar is that telemetry-*off* runs stay
within 2% of the pre-PR instructions/sec, so the guard times the
instrumented loop against a baseline subclass with the hooks compiled
out — the same interpreter, minus exactly this PR's per-instruction
cost.

Wall-clock tests are noisy under shared CI runners, so the comparison
is gated behind ``REPRO_PERF_TESTS=1`` (the CI bench job sets it); the
structural assertions always run.
"""

import os
import time

import pytest

from repro.machine import CPU
from repro.machine.cpu import ExecutionLimitExceeded
from repro.telemetry.runtime import get_telemetry
from tests.conftest import build_spill_kernel

#: Allowed slowdown of the instrumented loop over the baseline loop
#: with telemetry off (the ISSUE's 2% bar, plus measurement headroom).
OVERHEAD_BUDGET = 0.02

REPS = 15


class BaselineCPU(CPU):
    """The pre-PR hot loop: no timeline check in _emit, no hooks in run."""

    def run(self):
        while not self.halted:
            if self._dynamic_index >= self.max_instructions:
                raise ExecutionLimitExceeded(
                    f"exceeded {self.max_instructions} dynamic instructions",
                    pc=self.pc,
                )
            self.step()
        self.finalize()
        return self.stats

    def _emit(self, instruction, operand_values=(), result=None,
              address=None, level=None, taken=None):
        # The pre-PR body verbatim (sans the timeline check): keeping
        # the index load and tracer branch makes the comparison isolate
        # exactly the code this PR added.
        index = self._dynamic_index
        self._dynamic_index += 1
        if self.tracer is None:
            return
        del index
        raise AssertionError("overhead guard must run without a tracer")


def _timed_run(cpu_factory, program, model):
    import gc

    cpu = cpu_factory(program, model)
    gc.collect()
    gc.disable()  # a collection landing in one side of a pair skews its ratio
    try:
        start = time.perf_counter()
        cpu.run()
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    return elapsed, cpu.stats.dynamic_instructions


def _median_slowdown(program, model):
    """Median paired slowdown of the instrumented loop over the baseline.

    The two loops are timed back-to-back within every rep and compared
    as a per-rep *ratio*, so machine-level noise (a shared runner
    warming up, a neighbour stealing the core) hits both sides of each
    pair alike; the median then discards the reps where it did not.
    """
    import statistics

    ratios = []
    for _ in range(REPS):
        inst_elapsed, _ = _timed_run(CPU, program, model)
        base_elapsed, _ = _timed_run(BaselineCPU, program, model)
        ratios.append(inst_elapsed / base_elapsed)
    return statistics.median(ratios) - 1.0


def test_telemetry_off_run_skips_all_observability_work(model):
    """Structural half of the guard: off means *no* per-run state."""
    program = build_spill_kernel(iterations=5, chain=3, gap=4)
    telemetry = get_telemetry()
    assert not telemetry.enabled
    cpu = CPU(program, model)
    cpu.run()
    assert cpu._timeline is None
    assert telemetry.timelines == []
    assert telemetry.active_profiler() is None


@pytest.mark.integration
@pytest.mark.skipif(
    os.environ.get("REPRO_PERF_TESTS") != "1",
    reason="wall-clock comparison; set REPRO_PERF_TESTS=1 to enable",
)
def test_telemetry_off_overhead_within_budget(model):
    program = build_spill_kernel(iterations=400, chain=4, gap=8)
    assert not get_telemetry().enabled

    # Warm both paths once (code objects, caches) before timing.
    CPU(program, model).run()
    BaselineCPU(program, model).run()

    # Best of three attempts: a noise spike on a shared runner can push
    # one median past the budget, but a real regression pushes all of
    # them.
    slowdowns = []
    for _ in range(3):
        slowdowns.append(_median_slowdown(program, model))
        if slowdowns[-1] <= OVERHEAD_BUDGET:
            return
    summary = ", ".join(f"{s:+.1%}" for s in slowdowns)
    raise AssertionError(
        f"telemetry-off hot loop is persistently slower than the pre-PR "
        f"baseline loop (budget {OVERHEAD_BUDGET:.0%}; attempts: {summary})"
    )
