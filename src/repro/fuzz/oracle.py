"""The differential oracle: amnesic execution must be invisible.

For one spec the oracle makes one pass.  It profiles the program on the
classic interpreter (that traced run is also the classic baseline),
compiles it through the full profile→amnesic-compile pipeline, and
executes the binary under every requested scheduler policy on the
backend under test, with inline verification *off* (so a scheduler bug
surfaces as divergent architectural state, the way it would in
production).  Four families of invariants are checked:

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
  (``selection_cost < estimated_load_cost``);
* **backend exactness** — when the backend under test is not classic,
  its plain run is held to the profiling run, and each policy's run to
  a classic :class:`AmnesicCPU` of the same configuration, exactly: the
  fault raised, if any, and everything :func:`_observable` lists, down
  to cache LRU order, Hist/IBuff entry order and energy float bits.

The backend under test resolves like every other entry point's (an
explicit name or :class:`~repro.core.backend.Backend`, then
``$REPRO_BACKEND``, then classic); the reference is always classic.
Passing a deliberately broken pair (see :mod:`repro.fuzz.faults`) is
how the fuzzer validates itself.

A spec whose *classic* run faults is reported as **invalid** rather
than failing: the generator occasionally draws programs that exceed the
instruction budget, and those say nothing about amnesic execution.  A
non-classic backend must still fault the same way on the plain program.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple, Union

from ..compiler.amnesic_pass import (
    SELECTION_PROBABILISTIC,
    CompilationResult,
    PassOptions,
    compile_amnesic,
)
from ..core.amnesic_cpu import AmnesicCPU
from ..core.backend import BACKENDS, Backend, resolve_backend
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
from ..machine.cpu import CPU
from ..trace.recorder import profile_program
from .spec import ProgramSpec, materialize

#: Generated programs are small loops; anything beyond this is a hang.
DEFAULT_MAX_INSTRUCTIONS = 200_000

#: Relative tolerance for energy-sum conservation (pure float addition
#: noise; any real accounting leak is orders of magnitude larger).
_ENERGY_RTOL = 1e-9

_CLASSIC = BACKENDS["classic"]


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

    policy: str  # "*" if policy-independent, "classic" for the plain run
    # equivalence | structure | energy | budget | exception | compile | backend
    kind: str
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
    options: Optional[PassOptions] = None,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    backend: Union[str, Backend, None] = None,
) -> OracleVerdict:
    """Materialise *spec* and run the full differential check."""
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
        options=options,
        max_instructions=max_instructions,
        backend=backend,
    )


def check_program(
    program: Program,
    spec: Optional[ProgramSpec] = None,
    model: Optional[EnergyModel] = None,
    policies: Sequence[str] = POLICY_NAMES,
    options: Optional[PassOptions] = None,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    backend: Union[str, Backend, None] = None,
) -> OracleVerdict:
    """Differentially check an already-materialised program on *backend*."""
    under_test = resolve_backend(backend)
    exact = under_test != _CLASSIC  # hold every run to a classic twin
    model = model or default_fuzz_model()
    options = options or PassOptions()
    verdict = OracleVerdict(
        spec=spec,
        policies=tuple(policies),
        instruction_count=len(program.instructions),
    )
    fail = verdict.failures.append

    def plain(cls):
        return cls(program, model, max_instructions=max_instructions)

    # Classic baseline: the profiling run, which both compiles share.  A
    # fault here is the spec's problem, not the pipeline's; the backend
    # must still reproduce it.
    try:
        profile = profile_program(
            program, model, max_instructions=max_instructions, backend="classic"
        )
    except ReproError as error:
        if exact:
            reference = plain(CPU)
            _hold_to_classic(
                verdict, "classic", under_test.name,
                reference, _run(reference), plain(under_test.cpu_cls),
            )
        verdict.invalid = True
        verdict.invalid_reason = f"classic: {_describe(error)}"
        return verdict
    classic = classic_outcome(profile)
    _check_account(verdict, "classic", classic.account, classic_run=True)
    if exact:
        _hold_to_classic(
            verdict, "classic", under_test.name,
            classic.cpu, None, plain(under_test.cpu_cls),
        )
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

    settings = {"max_instructions": max_instructions, "verify": False}
    for policy_name in policies:
        compilation = all_valid if policy_name == "Oracle" else probabilistic
        if compilation is None:
            continue  # the Oracle compile already failed above
        binary = compilation.binary
        cpu = under_test.amnesic_cls(
            binary, model, make_policy(policy_name), **settings
        )
        if exact:
            reference = AmnesicCPU(
                binary, model, make_policy(policy_name), **settings
            )
            error = _hold_to_classic(
                verdict, policy_name, under_test.name,
                reference, _run(reference), cpu,
            )
        else:
            error = _run(cpu)
        if error is not None:
            fail(OracleFailure(policy_name, "exception", error))
            continue
        _check_equivalence(
            verdict, policy_name, cpu, classic_registers, classic_memory
        )
        _check_structure(verdict, policy_name, cpu, classic.stats)
        _check_account(verdict, policy_name, cpu.account, classic_run=False)
    return verdict


def check_backend_equivalence(
    program: Program,
    spec: Optional[ProgramSpec] = None,
    backend: Union[str, Backend] = "fast-batched",
    **settings,
) -> OracleVerdict:
    """:func:`check_program` with *backend* defaulting to fast-batched."""
    return check_program(program, spec, backend=backend, **settings)


# ----------------------------------------------------------------------
# Running and comparing CPUs.
# ----------------------------------------------------------------------
def _describe(error: ReproError) -> str:
    return f"{type(error).__name__}: {error}"


def _run(cpu: CPU) -> Optional[str]:
    """Run *cpu* to completion; the fault it raised, described, or None."""
    try:
        cpu.run()
    except ReproError as error:
        return _describe(error)
    return None


def _hold_to_classic(
    verdict: OracleVerdict, label: str, backend: str,
    reference: CPU, reference_error: Optional[str], tested: CPU,
) -> Optional[str]:
    """Run *tested* and hold it to a classic run of the same configuration.

    The fault must match first; the state is compared only when it does.
    Returns the fault *tested* raised, described, or None.
    """
    tested_error = _run(tested)
    if tested_error != reference_error:
        verdict.failures.append(
            OracleFailure(
                label,
                "backend",
                f"classic raised {reference_error!r}, "
                f"{backend} raised {tested_error!r}",
            )
        )
    else:
        _compare_state(verdict, label, backend, reference, tested)
    return tested_error


def _fields(stats) -> dict:
    """A stats object's fields by name, each mapping as a plain ``dict``.

    A plain copy keeps the comparison exact (a zero count on one side
    only differs, which ``Counter`` equality forgives) and prints as the
    counts themselves.
    """
    return {
        name: dict(value) if isinstance(value, dict) else value
        for name, value in vars(stats).items()
    }


def _observable(cpu: CPU) -> dict:
    """Everything two backends must agree on after a run, by name."""
    state = {
        "registers": cpu.registers,
        "memory": cpu.memory.snapshot(),
        "pc": cpu.pc,
        "dynamic instructions": cpu.dynamic_count,
        "run stats": _fields(cpu.stats),
        "hierarchy stats": _fields(cpu.hierarchy.stats),
    }
    for name in ("l1", "l2"):
        cache = getattr(cpu.hierarchy, name)
        state[f"{name} state"] = cache.observe()
        # Tag probes and LRU order: what the RCMP decisions touch.
        state[f"{name} stats"] = _fields(cache.stats)
        state[f"{name} lines"] = list(cache.resident_lines().items())
    state["energy breakdown"] = cpu.account.breakdown()
    state["modeled time"] = cpu.account.total_time_ns
    if isinstance(cpu, AmnesicCPU):
        state["fired slices"] = sorted(cpu.fired_slice_ids)
        for name in ("hist", "sfile", "ibuff"):
            state[f"{name} state"] = getattr(cpu, name).observe()
        for name in ("hist", "ibuff"):
            state[f"{name} entries"] = getattr(cpu, name).entries()
    return state


def _compare_state(
    verdict: OracleVerdict, label: str, backend: str, reference: CPU, tested: CPU
) -> None:
    """Exact comparison: the two runs execute the *same* semantics.

    Float energy totals included — the fast backend must accumulate in
    the classic charge order.
    """
    expected, actual = _observable(reference), _observable(tested)
    for what, value in expected.items():
        if value != actual[what]:
            verdict.failures.append(
                OracleFailure(
                    label,
                    "backend",
                    f"{what} diverged: classic {value!r}, "
                    f"{backend} {actual[what]!r}",
                )
            )


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
