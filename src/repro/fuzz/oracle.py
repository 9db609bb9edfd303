"""The differential oracle: amnesic execution must be invisible.

For one spec the oracle profiles the program on the classic interpreter
(that one run is also the classic baseline), compiles it through the
full profile→amnesic-compile pipeline, executes the
binary under every requested scheduler policy with inline verification
*off* (so a scheduler bug surfaces as divergent architectural state, the
way it would in production), and checks three families of invariants:

* **architectural equivalence** — final registers and the final memory
  image match the classic run exactly, for every policy;
* **structural consistency** — the Renamer holds no live mappings and
  the SFile no live entries after HALT, the ``recompute`` flag is down,
  Hist occupancy respects its capacity, every fired slice id exists in
  the binary, RCMP outcomes partition (encountered = fired + skipped +
  fallbacks), and dynamic loads are conserved (classic loads = amnesic
  loads performed + loads swapped for recomputation);
* **energy accounting** — per-group energies are non-negative, the
  grand total equals the per-group sum (``E_total = E_compute + E_mem
  ± E_rc`` deltas, with nothing charged outside the breakdown), classic
  runs carry zero Hist/amnesic energy, and every probabilistically
  selected slice respects its budget
  (``selection_cost < estimated_load_cost``).

A spec whose *classic* run faults is reported as **invalid** rather
than failing: the generator occasionally draws programs that exceed the
instruction budget, and those say nothing about amnesic execution.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple, Type

from ..compiler.amnesic_pass import (
    SELECTION_PROBABILISTIC,
    CompilationResult,
    PassOptions,
    compile_amnesic,
)
from ..core.amnesic_cpu import AmnesicCPU
from ..core.execution import _oracle_options, classic_outcome
from ..core.policies import POLICY_NAMES, make_policy
from ..energy import EnergyModel, EPITable
from ..energy.account import GROUP_AMNESIC, GROUP_HIST
from ..errors import ReproError
from ..isa.program import Program
from ..machine import CacheGeometry, MachineConfig
from ..machine.config import (
    PAPER_L1_PARAMS,
    PAPER_L2_PARAMS,
    PAPER_MEM_PARAMS,
)
from ..trace.recorder import profile_program
from .spec import ProgramSpec, materialize

#: Generated programs are small loops; anything beyond this is a hang.
DEFAULT_MAX_INSTRUCTIONS = 200_000

#: Relative tolerance for energy-sum conservation (pure float addition
#: noise; any real accounting leak is orders of magnitude larger).
_ENERGY_RTOL = 1e-9


def default_fuzz_model() -> EnergyModel:
    """The small hierarchy fuzzing runs against.

    Tiny caches make generated gap traffic actually evict spilled slots,
    so the probing policies (FLC/LLC) observe real misses and fire —
    under a paper-scale hierarchy every fuzz program would be
    L1-resident and the scheduler's miss paths would go untested.
    """
    config = MachineConfig(
        l1_geometry=CacheGeometry(total_lines=4, associativity=2, line_words=4),
        l2_geometry=CacheGeometry(total_lines=16, associativity=4, line_words=4),
        l1_params=PAPER_L1_PARAMS,
        l2_params=PAPER_L2_PARAMS,
        mem_params=PAPER_MEM_PARAMS,
    )
    return EnergyModel(epi=EPITable.default(), config=config)


@dataclasses.dataclass(frozen=True)
class OracleFailure:
    """One violated invariant under one policy (or at compile time)."""

    policy: str  # "*" for policy-independent failures
    kind: str  # equivalence | structure | energy | budget | exception | compile
    message: str

    def __str__(self) -> str:
        return f"[{self.policy}] {self.kind}: {self.message}"


@dataclasses.dataclass
class OracleVerdict:
    """Everything the oracle concluded about one spec."""

    spec: ProgramSpec
    policies: Tuple[str, ...]
    failures: List[OracleFailure] = dataclasses.field(default_factory=list)
    invalid: bool = False
    invalid_reason: str = ""
    instruction_count: int = 0
    slice_count: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures and not self.invalid

    @property
    def is_counterexample(self) -> bool:
        return bool(self.failures)

    def summary(self) -> str:
        if self.invalid:
            return f"invalid: {self.invalid_reason}"
        if not self.failures:
            return (
                f"ok ({self.instruction_count} instructions, "
                f"{self.slice_count} slices)"
            )
        return "; ".join(str(failure) for failure in self.failures)


def check_spec(
    spec: ProgramSpec,
    model: Optional[EnergyModel] = None,
    policies: Sequence[str] = POLICY_NAMES,
    cpu_cls: Type[AmnesicCPU] = AmnesicCPU,
    options: Optional[PassOptions] = None,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
) -> OracleVerdict:
    """Materialise *spec* and run the full differential check.

    *cpu_cls* exists so the fuzzer can validate itself: substituting a
    deliberately buggy scheduler (see :mod:`repro.fuzz.faults`) must
    turn a clean verdict into a counterexample.
    """
    verdict = OracleVerdict(spec=spec, policies=tuple(policies))
    try:
        program = materialize(spec)
    except ReproError as error:
        verdict.invalid = True
        verdict.invalid_reason = f"materialise: {error}"
        return verdict
    return check_program(
        program,
        spec=spec,
        model=model,
        policies=policies,
        cpu_cls=cpu_cls,
        options=options,
        max_instructions=max_instructions,
    )


def check_program(
    program: Program,
    spec: Optional[ProgramSpec] = None,
    model: Optional[EnergyModel] = None,
    policies: Sequence[str] = POLICY_NAMES,
    cpu_cls: Type[AmnesicCPU] = AmnesicCPU,
    options: Optional[PassOptions] = None,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
) -> OracleVerdict:
    """Differentially check an already-materialised program."""
    model = model or default_fuzz_model()
    options = options or PassOptions()
    verdict = OracleVerdict(
        spec=spec,
        policies=tuple(policies),
        instruction_count=len(program.instructions),
    )
    fail = verdict.failures.append

    # Classic baseline: the profiling run, which both compiles share.  A
    # fault here is the spec's problem, not the pipeline's.
    try:
        profile = profile_program(
            program, model, max_instructions=max_instructions
        )
    except ReproError as error:
        verdict.invalid = True
        verdict.invalid_reason = f"classic: {error}"
        return verdict
    classic = classic_outcome(profile)
    _check_account(verdict, "classic", classic.account, classic_run=True)
    classic_registers = list(classic.cpu.registers)
    classic_memory = classic.cpu.memory.snapshot()

    # Compile once; the probabilistic binary serves every policy but
    # Oracle, which gets the all-valid binary off the shared profile.
    try:
        probabilistic = compile_amnesic(
            program,
            model,
            profile=profile,
            options=dataclasses.replace(
                options, selection=SELECTION_PROBABILISTIC
            ),
        )
    except ReproError as error:
        fail(OracleFailure("*", "compile", f"probabilistic compile: {error}"))
        return verdict
    verdict.slice_count = len(probabilistic.rslices)
    _check_budget(verdict, probabilistic)

    all_valid: Optional[CompilationResult] = None
    if "Oracle" in policies:
        try:
            all_valid = compile_amnesic(
                program,
                model,
                profile=profile,
                options=_oracle_options(options),
            )
        except ReproError as error:
            fail(OracleFailure("Oracle", "compile", f"all-valid compile: {error}"))

    for policy_name in policies:
        compilation = all_valid if policy_name == "Oracle" else probabilistic
        if compilation is None:
            continue  # the Oracle compile already failed above
        cpu = cpu_cls(
            compilation.binary,
            model,
            make_policy(policy_name),
            max_instructions=max_instructions,
            verify=False,
        )
        try:
            cpu.run()
        except ReproError as error:
            fail(
                OracleFailure(
                    policy_name, "exception", f"{type(error).__name__}: {error}"
                )
            )
            continue
        _check_equivalence(
            verdict, policy_name, cpu, classic_registers, classic_memory
        )
        _check_structure(verdict, policy_name, cpu, classic.stats)
        _check_account(verdict, policy_name, cpu.account, classic_run=False)
    return verdict


# ----------------------------------------------------------------------
# Invariant families.
# ----------------------------------------------------------------------
def _check_equivalence(
    verdict: OracleVerdict,
    policy: str,
    cpu: AmnesicCPU,
    classic_registers: List,
    classic_memory: dict,
) -> None:
    fail = verdict.failures.append
    for index, (expected, actual) in enumerate(
        zip(classic_registers, cpu.registers)
    ):
        if expected != actual:
            fail(
                OracleFailure(
                    policy,
                    "equivalence",
                    f"r{index} = {actual!r}, classic read {expected!r}",
                )
            )
            break  # one register is enough to make the point
    memory = cpu.memory.snapshot()
    if memory != classic_memory:
        diverging = sorted(
            address
            for address in set(memory) | set(classic_memory)
            if memory.get(address) != classic_memory.get(address)
        )
        address = diverging[0]
        fail(
            OracleFailure(
                policy,
                "equivalence",
                f"memory[{address:#x}] = {memory.get(address)!r}, classic "
                f"wrote {classic_memory.get(address)!r} "
                f"({len(diverging)} diverging words)",
            )
        )


def _check_structure(
    verdict: OracleVerdict, policy: str, cpu: AmnesicCPU, classic_stats
) -> None:
    fail = verdict.failures.append

    def structural(condition: bool, message: str) -> None:
        if not condition:
            fail(OracleFailure(policy, "structure", message))

    stats = cpu.stats
    structural(
        cpu.renamer.live_mappings == 0,
        f"renamer holds {cpu.renamer.live_mappings} live mappings after HALT",
    )
    structural(
        cpu.sfile.occupancy == 0,
        f"SFile holds {cpu.sfile.occupancy} live entries after HALT",
    )
    structural(not cpu.recompute, "recompute flag still raised after HALT")
    structural(
        cpu.hist.occupancy <= cpu.hist.capacity,
        f"Hist occupancy {cpu.hist.occupancy} exceeds capacity "
        f"{cpu.hist.capacity}",
    )
    unknown = cpu.fired_slice_ids - set(cpu.binary.slices)
    structural(
        not unknown, f"fired slice ids {sorted(unknown)} absent from the binary"
    )
    outcomes = (
        stats.recomputations_fired
        + stats.recomputations_skipped
        + stats.recomputation_fallbacks
    )
    structural(
        stats.rcmp_encountered == outcomes,
        f"{stats.rcmp_encountered} RCMPs encountered but "
        f"{outcomes} outcomes recorded",
    )
    structural(
        stats.recomputation_aborts <= stats.recomputation_fallbacks,
        f"{stats.recomputation_aborts} aborts exceed "
        f"{stats.recomputation_fallbacks} fallbacks",
    )
    structural(
        stats.stores_performed == classic_stats.stores_performed,
        f"performed {stats.stores_performed} stores, classic performed "
        f"{classic_stats.stores_performed}",
    )
    structural(
        stats.loads_performed + stats.recomputations_fired
        == classic_stats.loads_performed,
        f"load conservation broken: {stats.loads_performed} performed + "
        f"{stats.recomputations_fired} swapped != classic "
        f"{classic_stats.loads_performed}",
    )


def _check_account(
    verdict: OracleVerdict, policy: str, account, classic_run: bool
) -> None:
    fail = verdict.failures.append
    breakdown = account.breakdown()
    for group, energy in breakdown.items():
        if energy < 0:
            fail(
                OracleFailure(
                    policy, "energy", f"negative {group} energy {energy}"
                )
            )
    total = account.total_energy_nj
    group_sum = sum(breakdown.values())
    if abs(total - group_sum) > _ENERGY_RTOL * max(1.0, abs(total)):
        fail(
            OracleFailure(
                policy,
                "energy",
                f"total {total} != group sum {group_sum} "
                "(energy charged outside the breakdown)",
            )
        )
    if account.total_time_ns < 0:
        fail(
            OracleFailure(
                policy, "energy", f"negative time {account.total_time_ns}"
            )
        )
    if classic_run:
        for group in (GROUP_HIST, GROUP_AMNESIC):
            if breakdown[group] != 0:
                fail(
                    OracleFailure(
                        policy,
                        "energy",
                        f"classic run charged {breakdown[group]} nJ to "
                        f"{group}",
                    )
                )


def check_backend_equivalence(
    program: Program,
    spec: Optional[ProgramSpec] = None,
    model: Optional[EnergyModel] = None,
    policies: Sequence[str] = POLICY_NAMES,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    backend: object = "fast-batched",
) -> OracleVerdict:
    """Hold a non-classic backend to the classic interpreter, exactly.

    The same differential idea as :func:`check_program`, but the pair
    under test is the execution *backend* rather than the execution
    *model*: the classic program and every per-policy amnesic run are
    executed under both backends and compared on final registers, the
    memory image, RunStats, hierarchy counters, per-cache stats (tag
    probes included) and resident lines in LRU order, the Hist/SFile/
    IBuff counters and Hist/IBuff entry order, the per-group energy
    breakdown, and modeled time.  Unlike amnesic-vs-classic (where only
    architectural state must match), the two backends run the *same*
    semantics, so every comparison is exact — including float energy
    totals, which the fast backend must accumulate in the classic charge
    order.  Faults count too: a program that faults under classic must
    fault under the tested backend with the same exception type,
    message, and pc.

    Failures carry kind ``"backend"``; the policy field is ``classic``
    for the plain-interpreter comparison and the policy name for the
    amnesic ones.

    ``backend`` picks the backend under test: a registry name
    (``"fast-batched"``) or a ``Backend`` instance — the latter is how
    the broken-batcher proof tests hand the oracle a deliberately wrong
    implementation.
    """
    from ..core.backend import BACKENDS, Backend

    if isinstance(backend, str):
        backend = BACKENDS[backend]
    if not isinstance(backend, Backend):
        raise TypeError(f"backend must be a name or Backend, got {backend!r}")
    under_test: Backend = backend
    model = model or default_fuzz_model()
    verdict = OracleVerdict(
        spec=spec,
        policies=tuple(policies),
        instruction_count=len(program.instructions),
    )
    fail = verdict.failures.append

    def run_both(label: str, make_cpu) -> Optional[Tuple]:
        """Run under both backends; report fault divergence; return CPUs."""
        outcomes = []
        for pick in (BACKENDS["classic"], under_test):
            cpu = make_cpu(pick)
            error = None
            try:
                cpu.run()
            except ReproError as caught:
                error = f"{type(caught).__name__}: {caught}"
            outcomes.append((cpu, error))
        (classic_cpu, classic_error), (fast_cpu, fast_error) = outcomes
        if classic_error != fast_error:
            fail(
                OracleFailure(
                    label,
                    "backend",
                    f"classic raised {classic_error!r}, "
                    f"{under_test.name} raised {fast_error!r}",
                )
            )
            return None
        return classic_cpu, fast_cpu, classic_error

    def compare_state(label: str, classic_cpu, fast_cpu) -> None:
        def exact(what: str, expected, actual) -> None:
            if expected != actual:
                fail(
                    OracleFailure(
                        label,
                        "backend",
                        f"{what} diverged: classic {expected!r}, "
                        f"{under_test.name} {actual!r}",
                    )
                )

        exact("registers", classic_cpu.registers, fast_cpu.registers)
        exact(
            "memory", classic_cpu.memory.snapshot(), fast_cpu.memory.snapshot()
        )
        exact("pc", classic_cpu.pc, fast_cpu.pc)
        exact(
            "dynamic instructions",
            classic_cpu.dynamic_count,
            fast_cpu.dynamic_count,
        )
        exact(
            "run stats",
            dataclasses.asdict(classic_cpu.stats),
            dataclasses.asdict(fast_cpu.stats),
        )
        exact(
            "hierarchy stats",
            dataclasses.asdict(classic_cpu.hierarchy.stats),
            dataclasses.asdict(fast_cpu.hierarchy.stats),
        )
        for cache in ("l1", "l2"):
            reference = getattr(classic_cpu.hierarchy, cache)
            tested = getattr(fast_cpu.hierarchy, cache)
            exact(f"{cache} state", reference.observe(), tested.observe())
            # Tag probes and LRU order: what the RCMP decisions touch.
            exact(
                f"{cache} stats",
                dataclasses.asdict(reference.stats),
                dataclasses.asdict(tested.stats),
            )
            exact(
                f"{cache} lines",
                list(reference.resident_lines().items()),
                list(tested.resident_lines().items()),
            )
        exact(
            "energy breakdown",
            classic_cpu.account.breakdown(),
            fast_cpu.account.breakdown(),
        )
        exact(
            "modeled time",
            classic_cpu.account.total_time_ns,
            fast_cpu.account.total_time_ns,
        )
        if hasattr(classic_cpu, "hist"):
            exact(
                "fired slices",
                sorted(classic_cpu.fired_slice_ids),
                sorted(fast_cpu.fired_slice_ids),
            )
            for structure in ("hist", "sfile", "ibuff"):
                exact(
                    f"{structure} state",
                    getattr(classic_cpu, structure).observe(),
                    getattr(fast_cpu, structure).observe(),
                )
            for structure in ("hist", "ibuff"):
                exact(
                    f"{structure} entries",
                    getattr(classic_cpu, structure).entries(),
                    getattr(fast_cpu, structure).entries(),
                )

    # The plain-interpreter pair.
    pair = run_both(
        "classic",
        lambda backend: backend.cpu_cls(
            program, model, max_instructions=max_instructions
        ),
    )
    if pair is not None:
        classic_cpu, fast_cpu, classic_error = pair
        compare_state("classic", classic_cpu, fast_cpu)
        if classic_error is not None:
            # Fault parity verified; the compiled comparisons below need
            # a clean classic run to mean anything.
            verdict.invalid = True
            verdict.invalid_reason = f"classic: {classic_error}"
            return verdict
    else:
        return verdict

    # The amnesic pairs, one per policy, over the shared binaries.
    try:
        probabilistic = compile_amnesic(
            program,
            model,
            options=PassOptions(selection=SELECTION_PROBABILISTIC),
        )
    except ReproError as error:
        fail(OracleFailure("*", "compile", f"probabilistic compile: {error}"))
        return verdict
    verdict.slice_count = len(probabilistic.rslices)
    all_valid: Optional[CompilationResult] = None
    if "Oracle" in policies:
        try:
            all_valid = compile_amnesic(
                program,
                model,
                profile=probabilistic.profile,
                options=_oracle_options(PassOptions()),
            )
        except ReproError as error:
            fail(OracleFailure("Oracle", "compile", f"all-valid compile: {error}"))

    for policy_name in policies:
        compilation = all_valid if policy_name == "Oracle" else probabilistic
        if compilation is None:
            continue
        pair = run_both(
            policy_name,
            lambda backend: backend.amnesic_cls(
                compilation.binary,
                model,
                make_policy(policy_name),
                max_instructions=max_instructions,
                verify=False,
            ),
        )
        if pair is not None:
            compare_state(policy_name, pair[0], pair[1])
    return verdict


def _check_budget(verdict: OracleVerdict, compilation: CompilationResult) -> None:
    """Every probabilistically selected slice must beat its load estimate."""
    for rslice in compilation.rslices:
        if rslice.selection_cost.energy_nj >= rslice.estimated_load_cost.energy_nj:
            verdict.failures.append(
                OracleFailure(
                    "*",
                    "budget",
                    f"slice {rslice.slice_id} selected with cost "
                    f"{rslice.selection_cost.energy_nj:.3f} nJ >= estimated "
                    f"load {rslice.estimated_load_cost.energy_nj:.3f} nJ",
                )
            )


__all__ = [
    "DEFAULT_MAX_INSTRUCTIONS",
    "OracleFailure",
    "OracleVerdict",
    "check_backend_equivalence",
    "check_program",
    "check_spec",
    "default_fuzz_model",
]
