"""The tracer: self time, clean install/uninstall, valid output, no effect."""

import sys

import pytest
from repro.telemetry.export import validate_chrome_trace

import layers
import workloads
from child import digest


def test_self_time_with_nested_children():
    # parent [0, 100); children [10, 30) and [50, 60)
    assert layers.self_time(0, 100, [(10, 30), (50, 60)]) == 70


def test_self_time_with_overlapping_and_overhanging_children():
    # [10, 40) and [30, 50) overlap: their union is [10, 50)
    assert layers.self_time(0, 100, [(30, 50), (10, 40)]) == 60
    # a child reaching past the parent counts only inside it
    assert layers.self_time(0, 100, [(90, 130)]) == 90
    # a child contained in another adds nothing
    assert layers.self_time(0, 100, [(10, 50), (20, 30)]) == 60


def test_recorder_attributes_each_span_once():
    ticks = iter(range(0, 1000, 10))
    recorder = layers.Recorder(clock=lambda: next(ticks))
    recorder.phase = "timed"
    outer = recorder.begin("compiler.compile")        # t=0
    inner = recorder.begin("trace.profile")           # t=10
    recorder.end(inner)                               # t=20
    again = recorder.begin("compiler.compile")        # t=30, nested same name
    recorder.end(again)                               # t=40
    recorder.end(outer)                               # t=50
    totals = layers.aggregate(recorder)
    own, outermost = totals[("timed", "compiler.compile", ())]
    assert own == pytest.approx(50e-9 - 10e-9)        # 40 + 10 self, ns -> s
    assert outermost == pytest.approx(50e-9)          # the nested call is not re-added
    assert totals[("timed", "trace.profile", ())] == pytest.approx([10e-9, 10e-9])


def _bindings():
    """Every attribute of every repro module and repro class, by identity."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        seen[name] = dict(vars(module))
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__.startswith("repro"):
                seen[f"{value.__module__}.{value.__qualname__}"] = dict(vars(value))
    return seen


def test_install_then_uninstall_restores_every_attribute():
    import repro.compiler.amnesic_pass
    import repro.core.execution
    from repro.machine.cpu import CPU

    original_compile = repro.compiler.amnesic_pass.compile_amnesic
    original_run = CPU.run
    tracer = layers.Tracer(layers.Recorder()).install()
    before = _bindings()
    try:
        assert repro.core.execution.compile_amnesic is not original_compile
        assert repro.core.execution.compile_amnesic._perfbench_original is original_compile
        assert CPU.run is not original_run
        assert "compile" in vars(sys.modules[layers.CODEGEN_MODULE])
    finally:
        tracer.uninstall()
    after = _bindings()
    assert repro.core.execution.compile_amnesic is original_compile
    assert CPU.run is original_run
    assert "compile" not in vars(sys.modules[layers.CODEGEN_MODULE])
    for owner, attrs in after.items():
        for attr, value in attrs.items():
            assert not hasattr(value, "_perfbench_original"), f"{owner}.{attr}"
    # Only the wrapped bindings changed, and each went back to its original.
    changed = {
        (owner, attr)
        for owner, attrs in before.items()
        for attr, value in attrs.items()
        if after.get(owner, {}).get(attr, value) is not value
    }
    assert changed
    for owner, attr in changed:
        wrapper = before[owner][attr]
        assert after[owner][attr] is wrapper._perfbench_original


def _run(workload, units):
    workload.setup(0)
    out = []
    for unit in units:
        output = workload.run_unit(unit)
        assert workload.check_unit(unit, output) is None
        out.append(digest(workload.digest_unit(unit, output)))
    return out


@pytest.mark.parametrize("cls, units", [
    (workloads.FuzzOracle, [3, 11, 42]),
    (workloads.LintSuite, ["perlbench"]),
])
def test_tracing_changes_no_simulated_result_and_exports_a_valid_trace(cls, units):
    plain = _run(cls(), units)
    recorder = layers.Recorder()
    tracer = layers.Tracer(recorder).install()
    recorder.phase = "timed"
    try:
        traced = _run(cls(), units)
    finally:
        tracer.uninstall()
    assert traced == plain
    metrics = layers.per_layer_metrics(recorder, timed_cpu_s=1.0)
    assert metrics["timed.compiler_s"][0] > 0
    assert metrics["compiler.calls"][0] > 0
    trace = layers.chrome_trace(recorder, "test")
    assert len(trace["traceEvents"]) == 2 + len(recorder.spans)
    assert validate_chrome_trace(trace) == []
