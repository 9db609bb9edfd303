"""Per-layer CPU-time tracing, installed from outside the program.

The traced run wraps public functions of repro's layers -- no file
under ``src/`` changes -- and records one span per call: name, start
and end in process CPU time, and the span open when it began.  A span's
self time is its duration minus the union of its children, so every
traced CPU second lands in exactly one layer.  Spans stay in memory and
are exported as Chrome trace-event JSON when the run ends.  The untraced
run imports nothing from here.

A module that did ``from x import f`` holds its own reference to ``f``,
so function wrappers are installed wherever a loaded ``repro`` module
binds the original, and uninstall puts every one of them back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: The program's layers, in pipeline order (span names start with one).
LAYERS = (
    "workloads", "trace", "compiler", "machine", "staticcheck", "core",
    "harness", "fuzz",
)

#: Wrapped callables: (module, attribute path, span name).
TARGETS = (
    ("repro.workloads.base", "WorkloadSpec.instantiate", "workloads.instantiate"),
    ("repro.trace.recorder", "profile_program", "trace.profile"),
    ("repro.compiler.amnesic_pass", "compile_amnesic", "compiler.compile"),
    ("repro.compiler.producers", "TemplateExtractor.extract", "compiler.extract"),
    ("repro.compiler.leaves", "collect_liveness", "compiler.liveness"),
    ("repro.compiler.formation", "form_slice_tree", "compiler.formation"),
    ("repro.compiler.leaves", "classify_and_validate", "compiler.classify"),
    ("repro.compiler.annotate", "rewrite_binary", "compiler.rewrite"),
    ("repro.core.execution", "run_classic", "core.execution"),
    ("repro.core.execution", "run_amnesic", "core.execution"),
    ("repro.core.execution", "prepare_evaluation", "core.execution"),
    ("repro.core.execution", "evaluate_policies", "core.execution"),
    ("repro.staticcheck.regions", "analyze_regions", "staticcheck.regions"),
    ("repro.staticcheck.rules", "verify_compilation", "staticcheck.verify"),
    ("repro.staticcheck.lint", "lint_program", "staticcheck.lint"),
    ("repro.harness.runner", "SuiteRunner.result", "harness.evaluate"),
    ("repro.harness.experiments", "run_experiment", "harness.render"),
    ("repro.fuzz.generator", "random_spec", "fuzz.generate"),
    ("repro.fuzz.spec", "materialize", "fuzz.materialize"),
    ("repro.fuzz.oracle", "check_spec", "fuzz.check_spec"),
    ("repro.fuzz.oracle", "check_backend_equivalence", "fuzz.backend_eq"),
)

#: Fused ``<region …>``/``<slice …>`` sources are compiled with the
#: builtin ``compile`` looked up in this module's globals, so a global
#: of that name shadows it there and times code generation.
CODEGEN_MODULE = "repro.machine.fastpath"

#: Metric-name suffixes, spelled out so that the parent process can list
#: the per-layer metrics without importing the program.
POLICIES = ("Oracle", "C-Oracle", "Compiler", "FLC", "LLC")
BACKENDS = ("classic", "fast-batched")

_ABSENT = object()


def self_time(start: float, end: float, children: List[Tuple[float, float]]) -> float:
    """*end* - *start* minus the union of the *children* intervals.

    Children are clipped to the parent and may overlap each other.
    """
    covered = 0.0
    cursor = start
    for child_start, child_end in sorted(children):
        child_start = max(child_start, cursor)
        child_end = min(child_end, end)
        if child_end > child_start:
            covered += child_end - child_start
            cursor = child_end
    return (end - start) - covered


class Recorder:
    """In-memory spans and counts, tagged with the current run phase."""

    def __init__(self, clock: Callable[[], int] = time.process_time_ns):
        self.clock = clock
        self.phase = "setup"
        #: [name, start_ns, end_ns, parent index, phase, attrs, outermost]
        self.spans: List[list] = []
        self.counts: Dict[Tuple[str, str], float] = {}
        self._stack: List[int] = []
        self._open: Dict[str, int] = {}

    def begin(self, name: str, attrs: Optional[dict] = None) -> int:
        parent = self._stack[-1] if self._stack else None
        outermost = not self._open.get(name)
        self._open[name] = self._open.get(name, 0) + 1
        self.spans.append([name, self.clock(), None, parent, self.phase, attrs, outermost])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span[2] = self.clock()
        self._stack.pop()
        self._open[span[0]] -= 1

    def count(self, name: str, amount: float = 1) -> None:
        key = (self.phase, name)
        self.counts[key] = self.counts.get(key, 0) + amount


def _timed(recorder: Recorder, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        if after is not None:
            after(recorder, result)
        return result

    wrapper._perfbench_original = fn
    return wrapper


def _count_profile(recorder, result):
    recorder.count("trace.profiled_instructions", result.dynamic_instructions)


def _count_compile(recorder, result):
    # Every static load ends either selected or rejected with a reason.
    recorder.count("compiler.calls")
    recorder.count("compiler.slices", len(result.rslices))
    recorder.count("compiler.static_loads", len(result.rslices) + len(result.rejected))


def _count_lint(recorder, result):
    recorder.count("staticcheck.error_findings", len(result[0].report.errors))


def _count_check_spec(recorder, verdict):
    recorder.count("fuzz.programs")
    recorder.count("fuzz.invalid", int(verdict.invalid))


def _count_codegen(recorder, result):
    recorder.count("machine.codegen_calls")


AFTER = {
    "trace.profile": _count_profile,
    "compiler.compile": _count_compile,
    "staticcheck.lint": _count_lint,
    "fuzz.check_spec": _count_check_spec,
}

_AMNESIC_FIELDS = (
    ("core.rcmp", "rcmp_encountered"),
    ("core.fired", "recomputations_fired"),
    ("core.fallbacks", "recomputation_fallbacks"),
    ("core.aborts", "recomputation_aborts"),
    ("core.slice_instructions", "slice_instructions_executed"),
)


def _cpu_run_wrapper(recorder: Recorder, original, amnesic_cls, backend_of: dict):
    """``CPU.run`` split into untraced classic and amnesic execution.

    Runs with a tracer attached are the profiling run, which the
    ``trace.profile`` span already covers.
    """

    @functools.wraps(original)
    def run(self):
        if self.tracer is not None:
            return original(self)
        stats = self.stats
        backend = backend_of.get(type(self), type(self).__name__)
        amnesic = isinstance(self, amnesic_cls)
        if amnesic:
            name = "core.amnesic"
            attrs = {"backend": backend, "policy": self.policy.name}
            before = [getattr(stats, field) for _, field in _AMNESIC_FIELDS]
        else:
            name = "machine.classic"
            attrs = {"backend": backend}
        instructions = stats.dynamic_instructions
        index = recorder.begin(name, attrs)
        try:
            return original(self)
        finally:
            recorder.end(index)
            executed = stats.dynamic_instructions - instructions
            if amnesic:
                recorder.count("core.amnesic_runs")
                recorder.count("core.instructions." + attrs["policy"], executed)
                for (counter, field), start in zip(_AMNESIC_FIELDS, before):
                    recorder.count(counter, getattr(stats, field) - start)
            else:
                recorder.count("machine.classic_runs")
                recorder.count("machine.classic_instructions", executed)

    run._perfbench_original = original
    return run


def _repro_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Tracer:
    """Installs the wrappers into the loaded program and removes them."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._patches: List[tuple] = []

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        recorder = self.recorder
        by_id: Dict[int, tuple] = {}
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for class_name in classes:
                owner = getattr(owner, class_name)
            original = vars(owner)[attr]
            wrapper = _timed(recorder, name, original, AFTER.get(name))
            if classes:
                self._patch(owner, attr, wrapper)
            else:
                by_id[id(original)] = (original, wrapper)
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

        from repro.core.amnesic_cpu import AmnesicCPU
        from repro.core.backend import BACKENDS as REGISTRY
        from repro.machine.cpu import CPU

        backend_of = {}
        for backend in REGISTRY.values():
            backend_of[backend.cpu_cls] = backend.name
            backend_of[backend.amnesic_cls] = backend.name
        self._patch(CPU, "run", _cpu_run_wrapper(recorder, CPU.run, AmnesicCPU, backend_of))
        self._patch(
            importlib.import_module(CODEGEN_MODULE),
            "compile",
            _timed(recorder, "machine.codegen", compile, _count_codegen),
        )
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()
        # A module imported while the wrappers were live bound them by name.
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                original = getattr(value, "_perfbench_original", None)
                if original is not None:
                    setattr(module, attr, original)


# ----------------------------------------------------------------------
# Aggregation.
# ----------------------------------------------------------------------
def aggregate(recorder: Recorder) -> Dict[tuple, List[float]]:
    """(phase, name, attrs) -> [self s, outermost-inclusive s]."""
    spans = recorder.spans
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        if span[3] is not None:
            children.setdefault(span[3], []).append((span[1], span[2]))
    totals: Dict[tuple, List[float]] = {}
    for index, (name, start, end, _, phase, attrs, outermost) in enumerate(spans):
        key = (phase, name, tuple(sorted(attrs.items())) if attrs else ())
        entry = totals.setdefault(key, [0.0, 0.0])
        entry[0] += self_time(start, end, children.get(index, [])) / 1e9
        if outermost:
            entry[1] += (end - start) / 1e9
    return totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(recorder: Recorder, timed_cpu_s: float) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of the timed phase (plus set-up by layer).

    ``*_s`` values are self time, except ``harness.evaluate_s``,
    ``harness.render_s``, ``fuzz.check_spec_s`` and
    ``fuzz.backend_eq_s``, which include their children.
    """
    totals = aggregate(recorder)

    def seconds(name=None, phase="timed", inclusive=False, layer=None, **where):
        total = 0.0
        for (span_phase, span_name, attrs), (own, outer) in totals.items():
            if span_phase != phase:
                continue
            if name is not None and span_name != name:
                continue
            if layer is not None and span_name.split(".", 1)[0] != layer:
                continue
            if any(dict(attrs).get(k) != v for k, v in where.items()):
                continue
            total += outer if inclusive else own
        return total

    def count(name):
        return recorder.counts.get(("timed", name), 0)

    out: Dict[str, Tuple[float, str]] = {}
    profile_s = seconds("trace.profile", inclusive=True)
    out["trace.profile_s"] = (seconds("trace.profile"), "s")
    out["trace.profiled_instructions"] = (count("trace.profiled_instructions"), "count")
    out["trace.profile_ips"] = (_ratio(count("trace.profiled_instructions"), profile_s), "instr/s")

    out["compiler.compile_s"] = (seconds("compiler.compile"), "s")
    out["compiler.calls"] = (count("compiler.calls"), "count")
    for step in ("extract", "liveness", "formation", "classify", "rewrite"):
        out[f"compiler.{step}_s"] = (seconds(f"compiler.{step}"), "s")
    out["compiler.static_loads"] = (count("compiler.static_loads"), "count")
    out["compiler.slices"] = (count("compiler.slices"), "count")
    out["compiler.slice_yield"] = (
        _ratio(count("compiler.slices"), count("compiler.static_loads")), "ratio",
    )

    out["machine.classic_s"] = (seconds("machine.classic"), "s")
    for backend in BACKENDS:
        out[f"machine.classic_s.{backend}"] = (seconds("machine.classic", backend=backend), "s")
    out["machine.classic_runs"] = (count("machine.classic_runs"), "count")
    out["machine.classic_ips"] = (
        _ratio(count("machine.classic_instructions"), seconds("machine.classic", inclusive=True)),
        "instr/s",
    )
    out["machine.codegen_s"] = (seconds("machine.codegen"), "s")
    out["machine.codegen_calls"] = (count("machine.codegen_calls"), "count")

    out["staticcheck.regions_s"] = (seconds("staticcheck.regions"), "s")
    out["staticcheck.verify_s"] = (seconds("staticcheck.verify"), "s")
    out["staticcheck.lint_s"] = (seconds("staticcheck.lint"), "s")
    out["staticcheck.error_findings"] = (count("staticcheck.error_findings"), "count")

    amnesic_instructions = sum(count("core.instructions." + p) for p in POLICIES)
    out["core.amnesic_s"] = (seconds("core.amnesic"), "s")
    for backend in BACKENDS:
        out[f"core.amnesic_s.{backend}"] = (seconds("core.amnesic", backend=backend), "s")
    out["core.amnesic_runs"] = (count("core.amnesic_runs"), "count")
    out["core.amnesic_ips"] = (
        _ratio(amnesic_instructions, seconds("core.amnesic", inclusive=True)), "instr/s",
    )
    for policy in POLICIES:
        out[f"core.amnesic_ips.{policy}"] = (
            _ratio(
                count("core.instructions." + policy),
                seconds("core.amnesic", inclusive=True, policy=policy),
            ),
            "instr/s",
        )
    for counter in ("rcmp", "fired", "fallbacks", "aborts"):
        out[f"core.{counter}"] = (count(f"core.{counter}"), "count")
    out["core.fire_ratio"] = (_ratio(count("core.fired"), count("core.rcmp")), "ratio")
    out["core.slice_instr_frac"] = (
        _ratio(count("core.slice_instructions"), amnesic_instructions), "ratio",
    )
    out["core.execution_s"] = (seconds("core.execution"), "s")

    out["harness.evaluate_s"] = (seconds("harness.evaluate", inclusive=True), "s")
    out["harness.render_s"] = (seconds("harness.render", inclusive=True), "s")
    out["harness.self_s"] = (seconds(layer="harness"), "s")

    out["fuzz.check_spec_s"] = (seconds("fuzz.check_spec", inclusive=True), "s")
    out["fuzz.backend_eq_s"] = (seconds("fuzz.backend_eq", inclusive=True), "s")
    out["fuzz.self_s"] = (seconds(layer="fuzz"), "s")
    out["fuzz.programs"] = (count("fuzz.programs"), "count")
    out["fuzz.invalid"] = (count("fuzz.invalid"), "count")

    out["workloads.instantiate_s"] = (seconds("workloads.instantiate"), "s")

    covered = 0.0
    for layer in LAYERS:
        timed = seconds(layer=layer)
        covered += timed
        out[f"timed.{layer}_s"] = (timed, "s")
        out[f"setup.{layer}_s"] = (seconds(layer=layer, phase="setup"), "s")
    out["bench.coverage"] = (_ratio(covered, timed_cpu_s), "ratio")
    return out


#: Per-layer names the workload process reports outside the recorder.
RUN_LEVEL = {
    "bench.trace_overhead_frac": "ratio",
    "host.wall_s": "s",
    "host.cpu_s": "s",
    "host.steal_frac": "ratio",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name and its unit (for the contract)."""
    units = {name: unit for name, (_, unit) in per_layer_metrics(Recorder(), 1.0).items()}
    units.update(RUN_LEVEL)
    return units


def chrome_trace(recorder: Recorder, process_name: str) -> dict:
    """The spans as Chrome trace-event JSON (timestamps in CPU µs)."""
    events = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
         "args": {"name": process_name}},
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
         "args": {"name": "main (process CPU time)"}},
    ]
    for name, start, end, _, phase, attrs, _ in recorder.spans:
        args = {"phase": phase}
        if attrs:
            args.update(attrs)
        events.append({
            "name": name,
            "cat": name.split(".", 1)[0],
            "ph": "X",
            "ts": start / 1000.0,
            "dur": (end - start) / 1000.0,
            "pid": 1,
            "tid": 1,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
