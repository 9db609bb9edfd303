"""The `repro lint` driver: sweep artifacts, cross-check, prove rules.

Orchestrates the static analyses over the two artifact populations the
repo ships — the kernel suite (compiled under the paper's energy model)
and the fuzz corpus (compiled exactly as the dynamic oracle compiles
it) — and layers three meta-checks on top:

* **cross-check** — every corpus entry's static verdict is compared
  with the dynamic oracle's; a static PASS on an artifact the oracle
  rejects is a soundness hole and reports XCK600 (always ERROR);
* **prove-rules** — each deliberately broken pass from
  :mod:`repro.staticcheck.faults` must be flagged with its expected
  rule id on at least one corpus program, proving the rules bite;
* **self** — the codebase layering lint over the installed package.

Exit codes: 0 clean, 1 findings at gating severity, 2 usage errors.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

from ..compiler.amnesic_pass import CompilationResult, PassOptions, compile_amnesic
from ..energy.model import EnergyModel
from ..energy.tech import paper_energy_model
from ..errors import ReproError
from ..fuzz.corpus import EXPECT_CLASSIC_FAULT, load_corpus
from ..fuzz.oracle import default_fuzz_model
from ..fuzz.runner import entry_satisfied, replay_entry
from ..fuzz.spec import materialize
from ..isa.program import Program
from ..telemetry.runtime import get_telemetry
from ..workloads.suite import REGISTRY
from . import diagnostics as D
from .diagnostics import LintReport, Severity
from .faults import BROKEN_PASSES
from .layering import check_layering, default_package_root
from .regions import RegionAnalysis, analyze_regions, describe
from .rules import verify_compilation

KIND_KERNEL = "kernel"
KIND_CORPUS = "corpus"

#: Cross-check outcomes recorded per corpus entry.
AGREE = "agree"
STATIC_PASS_DYNAMIC_FAIL = "static-pass-dynamic-fail"
STATIC_FAIL_DYNAMIC_PASS = "static-fail-dynamic-pass"

Progress = Optional[Callable[[str], None]]


@dataclasses.dataclass
class ProgramResult:
    """One linted artifact."""

    name: str
    kind: str  # KIND_KERNEL | KIND_CORPUS
    report: LintReport
    regions: Optional[RegionAnalysis] = None
    slice_count: int = 0
    cross_check: Optional[str] = None

    def to_json(self) -> dict:
        payload = self.report.to_json()
        payload["kind"] = self.kind
        payload["slices"] = self.slice_count
        if self.regions is not None:
            payload["regions"] = self.regions.summary()
        if self.cross_check is not None:
            payload["cross_check"] = self.cross_check
        return payload


@dataclasses.dataclass
class ProveOutcome:
    """Did one deliberately broken pass get caught?"""

    name: str
    expected_rule: str
    triggered_on: Optional[str]  # program that exposed it, None = missed
    rules_seen: List[str] = dataclasses.field(default_factory=list)
    attempted: int = 0

    @property
    def ok(self) -> bool:
        return self.triggered_on is not None

    def to_json(self) -> dict:
        return {
            "pass": self.name,
            "expected_rule": self.expected_rule,
            "ok": self.ok,
            "triggered_on": self.triggered_on,
            "rules_seen": self.rules_seen,
            "attempted": self.attempted,
        }


@dataclasses.dataclass
class LintRun:
    """Everything one `repro lint` invocation concluded."""

    results: List[ProgramResult] = dataclasses.field(default_factory=list)
    layering: Optional[LintReport] = None
    prove: List[ProveOutcome] = dataclasses.field(default_factory=list)

    @property
    def reports(self) -> List[LintReport]:
        reports = [result.report for result in self.results]
        if self.layering is not None:
            reports.append(self.layering)
        return reports

    @property
    def error_count(self) -> int:
        return sum(len(report.errors) for report in self.reports)

    @property
    def warning_count(self) -> int:
        return sum(
            len(report.by_severity(Severity.WARNING)) for report in self.reports
        )

    @property
    def ok(self) -> bool:
        return self.error_count == 0 and all(p.ok for p in self.prove)

    def to_json(self) -> dict:
        payload: dict = {
            "ok": self.ok,
            "errors": self.error_count,
            "warnings": self.warning_count,
            "programs": [result.to_json() for result in self.results],
        }
        if self.layering is not None:
            payload["layering"] = self.layering.to_json()
        if self.prove:
            payload["prove_rules"] = [outcome.to_json() for outcome in self.prove]
        return payload


@dataclasses.dataclass
class LintSettings:
    """What to sweep and how."""

    benchmarks: Optional[List[str]] = None  # None = the whole suite
    include_kernels: bool = True
    corpus_dir: Optional[str] = None  # None = skip the corpus
    scale: float = 1.0
    cross_check: bool = False
    prove_rules: bool = False
    self_check: bool = False
    backend: Optional[str] = None


def _count_findings(report: LintReport) -> None:
    telemetry = get_telemetry()
    for finding in report.findings:
        telemetry.counter(
            "lint.findings",
            rule=finding.rule_id,
            severity=finding.effective_severity.value,
        ).inc()


def lint_program(
    name: str,
    program: Program,
    model: EnergyModel,
    options: PassOptions,
    backend: Optional[str] = None,
) -> Tuple[ProgramResult, Optional[CompilationResult]]:
    """Compile *program* and run the full rule set over the artifact."""
    telemetry = get_telemetry()
    with telemetry.span("lint.program", program=name):
        try:
            compilation = compile_amnesic(
                program, model, options=options, backend=backend
            )
        except ReproError as error:
            report = LintReport(program=name)
            report.add(D.GEN000, f"amnesic compilation failed: {error}")
            _count_findings(report)
            return ProgramResult(name=name, kind="", report=report), None
        report = verify_compilation(name, program, compilation, model)
        regions = analyze_regions(compilation.binary.program)
        report.add(D.REG400, describe(regions))
        _count_findings(report)
        result = ProgramResult(
            name=name,
            kind="",
            report=report,
            regions=regions,
            slice_count=len(compilation.rslices),
        )
        return result, compilation


def _lint_kernels(run: LintRun, settings: LintSettings, progress: Progress) -> None:
    names = settings.benchmarks or list(REGISTRY.names())
    known = set(REGISTRY.names())
    unknown = [name for name in names if name not in known]
    if unknown:
        raise KeyError(", ".join(sorted(unknown)))
    model = paper_energy_model()
    for name in names:
        program = REGISTRY.get(name).instantiate(settings.scale)
        result, _ = lint_program(
            name, program, model, PassOptions(), backend=settings.backend
        )
        result.kind = KIND_KERNEL
        get_telemetry().counter("lint.programs", kind=KIND_KERNEL).inc()
        run.results.append(result)
        if progress:
            progress(f"kernel {name}: {_verdict(result.report)}")


def _lint_corpus(run: LintRun, settings: LintSettings, progress: Progress) -> None:
    assert settings.corpus_dir is not None
    entries = load_corpus(settings.corpus_dir)
    model = default_fuzz_model()
    options = PassOptions()
    for entry in entries:
        name = entry.name
        program = materialize(entry.spec)
        if entry.expect == EXPECT_CLASSIC_FAULT:
            # The entry's classic run faults by design (scheduled trap,
            # budget exhaustion), so there is no amnesic artifact to
            # verify.  The entry exists to pin batching fault parity:
            # analyze the *original* program's regions and, under
            # --cross-check, require the dynamic oracle to reproduce the
            # fault with zero equivalence failures.
            result = _lint_expected_fault(name, program)
            checkable = True
        else:
            result, compilation = lint_program(
                name, program, model, options, backend=settings.backend
            )
            result.kind = KIND_CORPUS
            checkable = compilation is not None
        get_telemetry().counter("lint.programs", kind=KIND_CORPUS).inc()
        if settings.cross_check and checkable:
            result.cross_check = _cross_check(result.report, entry, settings.backend)
        run.results.append(result)
        if progress:
            progress(f"corpus {name}: {_verdict(result.report)}")


def _lint_expected_fault(name: str, program: Program) -> ProgramResult:
    """Region-only lint for a corpus entry whose classic run faults."""
    report = LintReport(program=name)
    regions = analyze_regions(program)
    report.add(D.REG400, describe(regions))
    _count_findings(report)
    return ProgramResult(
        name=name, kind=KIND_CORPUS, report=report, regions=regions
    )


def _cross_check(report: LintReport, entry, backend: Optional[str]) -> str:
    """Compare the static verdict with the dynamic oracle's.

    The oracle replays the entry on the lint's *backend* and is judged
    against the entry's expectation, so an expected-fault entry agrees
    when its fault reproduces cleanly.
    """
    verdict = replay_entry(entry, default_fuzz_model(), backend=backend)
    static_ok = report.ok
    dynamic_ok = entry_satisfied(entry, verdict)
    if static_ok and not dynamic_ok:
        report.add(
            D.XCK600,
            f"static verdict PASS, dynamic oracle misses the entry's "
            f"{entry.expect!r} expectation: {verdict.summary()}",
        )
        _count_findings(report)
        return STATIC_PASS_DYNAMIC_FAIL
    if not static_ok and dynamic_ok:
        return STATIC_FAIL_DYNAMIC_PASS
    return AGREE


def prove_rules(
    settings: LintSettings, progress: Progress = None
) -> List[ProveOutcome]:
    """Run every broken pass until each is flagged with its expected rule."""
    if settings.corpus_dir is None:
        return []
    entries = load_corpus(settings.corpus_dir)
    model = default_fuzz_model()
    options = PassOptions()
    # Two artifacts per entry: the normal compilation, and a variant
    # with selection suppressed.  On this corpus every store-fed load
    # is profitable and gets swapped, so only the no-swap variant has
    # stores feeding live (non-swapped) loads — the material the
    # dead-store rules need.
    suppressed = PassOptions(min_instances=10**6)
    compiled: Dict[str, Tuple[Program, CompilationResult]] = {}
    for entry in entries:
        program = materialize(entry.spec)
        try:
            compilation = compile_amnesic(
                program, model, options=options, backend=settings.backend
            )
            compiled[entry.name] = (program, compilation)
            compiled[f"{entry.name}@noswap"] = (
                program,
                compile_amnesic(
                    program, model, profile=compilation.profile,
                    options=suppressed,
                ),
            )
        except ReproError:
            continue

    outcomes = []
    for pass_name, (expected_rule, broken_pass) in sorted(BROKEN_PASSES.items()):
        outcome = ProveOutcome(name=pass_name, expected_rule=expected_rule,
                               triggered_on=None)
        for name, (program, compilation) in compiled.items():
            broken = broken_pass(program, compilation, model)
            if broken is None:
                continue
            outcome.attempted += 1
            broken_compilation, broken_deadstores = broken
            report = verify_compilation(
                name, program, broken_compilation, model,
                deadstores=broken_deadstores,
            )
            if expected_rule in report.rule_ids():
                outcome.triggered_on = name
                outcome.rules_seen = report.rule_ids()
                break
        outcomes.append(outcome)
        if progress:
            verdict = (
                f"caught on {outcome.triggered_on}" if outcome.ok
                else f"MISSED ({outcome.attempted} program(s) tried)"
            )
            progress(f"broken pass {pass_name} [{expected_rule}]: {verdict}")
    return outcomes


def run_lint(settings: LintSettings, progress: Progress = None) -> LintRun:
    """Execute one full lint sweep per *settings*."""
    run = LintRun()
    telemetry = get_telemetry()
    with telemetry.span("lint.run"):
        if settings.self_check:
            run.layering = check_layering(default_package_root())
            _count_findings(run.layering)
            if progress:
                progress(f"layering: {_verdict(run.layering)}")
        if settings.include_kernels:
            _lint_kernels(run, settings, progress)
        if settings.corpus_dir is not None:
            _lint_corpus(run, settings, progress)
        if settings.prove_rules:
            run.prove = prove_rules(settings, progress)
        telemetry.gauge("lint.errors").set(run.error_count)
    return run


def _verdict(report: LintReport) -> str:
    if report.ok:
        extras = len(report.findings) - len(report.errors)
        return "ok" if not extras else f"ok ({extras} note(s))"
    return f"{len(report.errors)} error(s)"
