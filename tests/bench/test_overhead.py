"""Telemetry off means no observability state on the interpreter hot loop.

``CPU._emit`` carries a timeline hook and ``run()`` a telemetry lookup;
with telemetry off neither may attach anything.  How fast the loop runs
is measured out of process by perfbench, not here.
"""

from repro.machine import CPU
from repro.telemetry.runtime import get_telemetry
from tests.conftest import build_spill_kernel


def test_telemetry_off_run_skips_all_observability_work(model):
    """Off means *no* per-run state."""
    program = build_spill_kernel(iterations=5, chain=3, gap=4)
    telemetry = get_telemetry()
    assert not telemetry.enabled
    cpu = CPU(program, model)
    cpu.run()
    assert cpu._timeline is None
    assert telemetry.timelines == []
    assert telemetry.active_profiler() is None
