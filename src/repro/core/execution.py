"""Top-level execution API: run classic, run amnesic, compare.

This is the public surface most users want::

    from repro import compare
    result = compare(program, policy="FLC")
    print(result.edp_gain_percent)

:func:`evaluate_policies` reproduces one column group of the paper's
Figures 3-5: it profiles once — the profiling run doubles as the classic
baseline — builds the probabilistic binary (shared by
Compiler/FLC/LLC/C-Oracle) and the all-valid binary (Oracle), and
measures every requested policy against the baseline.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Optional

from ..compiler.amnesic_pass import (
    SELECTION_ALL_VALID,
    SELECTION_PROBABILISTIC,
    CompilationResult,
    PassOptions,
    compile_amnesic,
)
from ..compiler.formation import FORMATION_OPTIMAL
from ..energy.account import EnergyAccount
from ..energy.model import EnergyModel
from ..energy.tech import paper_energy_model
from ..isa.program import Program
from ..machine.cpu import DEFAULT_MAX_INSTRUCTIONS, CPU
from ..machine.stats import RunStats
from ..telemetry.runtime import get_telemetry
from ..trace.recorder import ProfileResult, profile_program
from .backend import resolve_backend
from .policies import POLICY_NAMES, Policy, make_policy


@dataclasses.dataclass
class ExecutionOutcome:
    """Result of one program execution (classic or amnesic)."""

    label: str
    stats: RunStats
    account: EnergyAccount
    cpu: CPU

    @property
    def energy_nj(self) -> float:
        return self.account.total_energy_nj

    @property
    def time_ns(self) -> float:
        return self.account.total_time_ns

    @property
    def edp(self) -> float:
        return self.account.edp


def percent_gain(baseline: float, value: float) -> float:
    """Gain of *value* over *baseline* in percent (positive = improvement).

    The one formula behind every y-axis of Figures 3-5, the sweep axes,
    and the break-even bisection; a zero baseline reports zero gain.
    """
    if baseline == 0:
        return 0.0
    return 100.0 * (baseline - value) / baseline


@dataclasses.dataclass
class PolicyComparison:
    """Amnesic-vs-classic outcome for one policy."""

    policy: str
    classic: ExecutionOutcome
    amnesic: ExecutionOutcome
    compilation: CompilationResult

    _gain = staticmethod(percent_gain)

    @property
    def edp_gain_percent(self) -> float:
        """Positive = amnesic wins (the paper's Figure 3 y-axis)."""
        return self._gain(self.classic.edp, self.amnesic.edp)

    @property
    def energy_gain_percent(self) -> float:
        """Figure 4 y-axis."""
        return self._gain(self.classic.energy_nj, self.amnesic.energy_nj)

    @property
    def time_gain_percent(self) -> float:
        """Figure 5 y-axis (% reduction in execution time)."""
        return self._gain(self.classic.time_ns, self.amnesic.time_ns)


def _oracle_options(options: PassOptions) -> PassOptions:
    """The Oracle configuration's compile options.

    The paper's Oracle runs on "a different (i.e., optimal) set of
    RSlices baked in the binary" whose "decisions are based on actual
    (not probabilistic or predicted) energy costs" (section 5.1).  Our
    analog: keep every *valid* slice (no probabilistic profitability
    filter) and cut each slice at its minimum-actual-cost point instead
    of the budgeted greedy growth.  The Oracle-vs-C-Oracle gap then
    measures exactly what the paper's does — how much the probabilistic
    model's slice set leaves on the table.
    """
    return dataclasses.replace(
        options, selection=SELECTION_ALL_VALID, formation=FORMATION_OPTIMAL
    )


def run_classic(
    program: Program,
    model: Optional[EnergyModel] = None,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    backend: Optional[str] = None,
) -> ExecutionOutcome:
    """Execute *program* under classic semantics."""
    model = model or paper_energy_model()
    cpu_cls = resolve_backend(backend).cpu_cls
    cpu = cpu_cls(program, model, max_instructions=max_instructions)
    stats = cpu.run()
    return ExecutionOutcome(label="classic", stats=stats, account=cpu.account, cpu=cpu)


def classic_outcome(profile: ProfileResult) -> ExecutionOutcome:
    """The classic baseline a profiling run already measured.

    Tracing observes execution without changing it: the profiling CPU
    retires the same instructions, charges the same energy and time, and
    ends in the same state as an untraced :func:`run_classic` with the
    same budget, so evaluation never runs the classic program twice.
    """
    cpu = profile.cpu
    return ExecutionOutcome(
        label="classic", stats=profile.stats, account=cpu.account, cpu=cpu
    )


def run_amnesic(
    compilation: CompilationResult,
    policy: str | Policy = "FLC",
    model: Optional[EnergyModel] = None,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    verify: bool = True,
    backend: Optional[str] = None,
    **cpu_kwargs,
) -> ExecutionOutcome:
    """Execute a compiled amnesic binary under *policy*."""
    model = model or paper_energy_model()
    if isinstance(policy, str):
        policy = make_policy(policy)
    amnesic_cls = resolve_backend(backend).amnesic_cls
    cpu = amnesic_cls(
        compilation.binary,
        model,
        policy,
        max_instructions=max_instructions,
        verify=verify,
        **cpu_kwargs,
    )
    stats = cpu.run()
    return ExecutionOutcome(
        label=policy.name, stats=stats, account=cpu.account, cpu=cpu
    )


def compare(
    program: Program,
    policy: str = "FLC",
    model: Optional[EnergyModel] = None,
    options: PassOptions = PassOptions(),
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    verify: bool = True,
    backend: Optional[str] = None,
) -> PolicyComparison:
    """Compile *program* amnesically and compare against classic execution."""
    model = model or paper_energy_model()
    if policy == "Oracle":
        options = _oracle_options(options)
    profile = profile_program(
        program, model, max_instructions=max_instructions, backend=backend
    )
    classic = classic_outcome(profile)
    compilation = compile_amnesic(
        program, model, profile=profile, options=options, backend=backend
    )
    amnesic = run_amnesic(
        compilation,
        policy,
        model,
        max_instructions=max_instructions,
        verify=verify,
        backend=backend,
    )
    return PolicyComparison(
        policy=policy, classic=classic, amnesic=amnesic, compilation=compilation
    )


@dataclasses.dataclass
class EvaluationSetup:
    """The compile-once/run-many half of a policy evaluation.

    Splitting :func:`evaluate_policies` into *prepare* (classic baseline
    + compiled binaries) and *measure* (one amnesic run per policy)
    gives a work unit that survives pickling: every field is plain
    data, so a worker process can prepare a setup once and measure any
    number of policies against it.  The parallel engine's result
    envelopes carry only the comparisons, never the setup.
    """

    program: Program
    model: EnergyModel
    options: PassOptions
    max_instructions: int
    verify: bool
    classic: ExecutionOutcome
    probabilistic: CompilationResult
    all_valid: Optional[CompilationResult] = None
    #: Backend name (plain data, so the setup still pickles); None means
    #: "resolve from the environment at measure time".
    backend: Optional[str] = None

    def compilation_for(self, policy: str) -> CompilationResult:
        """The binary a policy runs: all-valid for Oracle, else shared.

        The Oracle binary is compiled lazily (reusing the probabilistic
        run's profile) the first time an Oracle measurement asks for it.
        """
        if policy != "Oracle":
            return self.probabilistic
        if self.all_valid is None:
            self.all_valid = compile_amnesic(
                self.program,
                self.model,
                profile=self.probabilistic.profile,
                options=_oracle_options(self.options),
                backend=self.backend,
            )
        return self.all_valid

    def measure(self, policy: str) -> PolicyComparison:
        """Run one policy against the prepared classic baseline."""
        compilation = self.compilation_for(policy)
        with get_telemetry().span("evaluate.policy", policy=policy):
            amnesic = run_amnesic(
                compilation,
                policy,
                self.model,
                max_instructions=self.max_instructions,
                verify=self.verify,
                backend=self.backend,
            )
        return PolicyComparison(
            policy=policy, classic=self.classic, amnesic=amnesic,
            compilation=compilation,
        )


def prepare_evaluation(
    program: Program,
    model: Optional[EnergyModel] = None,
    options: PassOptions = PassOptions(),
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    verify: bool = True,
    backend: Optional[str] = None,
) -> EvaluationSetup:
    """Profile and compile once; the profiling run is the classic baseline."""
    model = model or paper_energy_model()
    profile = profile_program(
        program, model, max_instructions=max_instructions, backend=backend
    )
    probabilistic = compile_amnesic(
        program,
        model,
        profile=profile,
        options=dataclasses.replace(options, selection=SELECTION_PROBABILISTIC),
        backend=backend,
    )
    return EvaluationSetup(
        program=program,
        model=model,
        options=options,
        max_instructions=max_instructions,
        verify=verify,
        classic=classic_outcome(profile),
        probabilistic=probabilistic,
        backend=backend,
    )


def evaluate_policies(
    program: Program,
    policies: Iterable[str] = POLICY_NAMES,
    model: Optional[EnergyModel] = None,
    options: PassOptions = PassOptions(),
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    verify: bool = True,
    backend: Optional[str] = None,
) -> Dict[str, PolicyComparison]:
    """Measure every policy against the same classic baseline.

    Profiling runs once; the probabilistic binary is shared by the
    Compiler/FLC/LLC/C-Oracle configurations and the all-valid binary
    serves Oracle — mirroring the paper's section 5.1 experimental
    setup.
    """
    telemetry = get_telemetry()
    policies = tuple(policies)
    with telemetry.span(
        "evaluate", program=program.name, policies=",".join(policies)
    ):
        setup = prepare_evaluation(
            program,
            model,
            options=options,
            max_instructions=max_instructions,
            verify=verify,
            backend=backend,
        )
        return {name: setup.measure(name) for name in policies}
