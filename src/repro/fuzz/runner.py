"""Fuzz campaigns: generate → check → shrink → bank, plus corpus replay.

:func:`run_fuzz` is what ``repro fuzz`` invokes: it walks the
deterministic program stream of a campaign seed, feeds each spec to the
differential oracle, greedily shrinks any failure, and banks the
minimised counterexample into the corpus directory (deduplicated by
spec digest).  Progress is reported through the existing telemetry
registry — ``fuzz.programs``, ``fuzz.oracle.mismatches``, and
``fuzz.shrink.steps`` are the counters the ISSUE names — so
``repro fuzz --metrics`` summarises a campaign with no extra plumbing.

:func:`replay_corpus` is the CI half: re-run every committed entry and
report any that no longer pass.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from ..core.backend import DEFAULT_BACKEND, Backend, resolve_backend
from ..core.policies import POLICY_NAMES
from ..energy import EnergyModel
from ..telemetry.runtime import get_telemetry
from .corpus import EXPECT_CLASSIC_FAULT, CorpusEntry, load_corpus, save_entry
from .generator import program_seed, random_spec
from .oracle import (
    DEFAULT_MAX_INSTRUCTIONS,
    OracleVerdict,
    check_spec,
    default_fuzz_model,
)
from .shrinker import shrink_spec
from .spec import ProgramSpec


@dataclasses.dataclass
class FuzzConfig:
    """Everything one campaign needs (and nothing process-global)."""

    seed: int = 0
    iterations: int = 100
    time_budget_s: Optional[float] = None
    corpus_dir: Optional[str] = None
    policies: Tuple[str, ...] = POLICY_NAMES
    shrink: bool = True
    max_shrink_attempts: int = 500
    max_counterexamples: int = 5
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS
    #: The backend under test (None: ``$REPRO_BACKEND``, then classic).
    #: The oracle-validation tests pass deliberately broken pairs.
    backend: Union[str, Backend, None] = None


@dataclasses.dataclass
class Counterexample:
    """One failing program, before and after reduction."""

    original: ProgramSpec
    shrunk: ProgramSpec
    verdict: OracleVerdict  # the shrunk spec's failures
    shrink_steps: int
    shrink_attempts: int
    corpus_path: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "original": self.original.to_json(),
            "shrunk": self.shrunk.to_json(),
            "failures": [str(failure) for failure in self.verdict.failures],
            "shrink_steps": self.shrink_steps,
            "shrink_attempts": self.shrink_attempts,
            "corpus_path": self.corpus_path,
        }


@dataclasses.dataclass
class FuzzResult:
    """Campaign totals: what ran, what failed, what was banked."""

    config: FuzzConfig
    programs: int = 0
    invalid: int = 0
    elapsed_s: float = 0.0
    stopped_early: str = ""  # "time-budget" | "max-counterexamples" | ""
    counterexamples: List[Counterexample] = dataclasses.field(
        default_factory=list
    )

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_json(self) -> dict:
        return {
            "seed": self.config.seed,
            "iterations": self.config.iterations,
            "backend": resolve_backend(self.config.backend).name,
            "policies": list(self.config.policies),
            "programs": self.programs,
            "invalid": self.invalid,
            "elapsed_s": round(self.elapsed_s, 3),
            "stopped_early": self.stopped_early,
            "counterexamples": [cx.to_json() for cx in self.counterexamples],
        }


def run_fuzz(
    config: FuzzConfig, model: Optional[EnergyModel] = None
) -> FuzzResult:
    """Run one deterministic fuzz campaign."""
    config = dataclasses.replace(config, backend=resolve_backend(config.backend))
    model = model or default_fuzz_model()
    telemetry = get_telemetry()
    result = FuzzResult(config=config)
    banked_digests = set()
    if config.corpus_dir:
        banked_digests = {
            entry.spec.digest() for entry in load_corpus(config.corpus_dir)
        }
    started = time.monotonic()

    def check(spec: ProgramSpec) -> OracleVerdict:
        return check_spec(
            spec,
            model=model,
            policies=config.policies,
            max_instructions=config.max_instructions,
            backend=config.backend,
        )

    with telemetry.span(
        "fuzz.campaign", seed=config.seed, iterations=config.iterations
    ):
        for index in range(config.iterations):
            if (
                config.time_budget_s is not None
                and time.monotonic() - started >= config.time_budget_s
            ):
                result.stopped_early = "time-budget"
                break
            spec = random_spec(program_seed(config.seed, index))
            verdict = check(spec)
            result.programs += 1
            telemetry.counter("fuzz.programs").inc()
            telemetry.histogram("fuzz.program_instructions").observe(
                verdict.instruction_count
            )
            if verdict.invalid:
                result.invalid += 1
                telemetry.counter("fuzz.invalid").inc()
                continue
            if verdict.ok:
                continue

            telemetry.counter("fuzz.oracle.mismatches").inc(
                len(verdict.failures)
            )
            counterexample = _reduce_and_bank(
                spec, verdict, check, config, banked_digests
            )
            telemetry.counter("fuzz.shrink.steps").inc(
                counterexample.shrink_steps
            )
            telemetry.event(
                "fuzz.counterexample",
                seed=spec.seed,
                failures=[str(f) for f in counterexample.verdict.failures],
                corpus_path=counterexample.corpus_path,
            )
            result.counterexamples.append(counterexample)
            if len(result.counterexamples) >= config.max_counterexamples:
                result.stopped_early = "max-counterexamples"
                break
    result.elapsed_s = time.monotonic() - started
    return result


def _reduce_and_bank(
    spec: ProgramSpec,
    verdict: OracleVerdict,
    check,
    config: FuzzConfig,
    banked_digests: set,
) -> Counterexample:
    """Shrink a failing spec and persist the reduction to the corpus."""
    shrunk, steps, attempts = spec, 0, 0
    final_verdict = verdict
    if config.shrink:
        reduction = shrink_spec(
            spec,
            lambda candidate: check(candidate).is_counterexample,
            max_attempts=config.max_shrink_attempts,
        )
        shrunk, steps, attempts = (
            reduction.spec, reduction.steps, reduction.attempts,
        )
        if steps:
            final_verdict = check(shrunk)

    corpus_path = None
    if config.corpus_dir:
        digest = shrunk.digest()
        if digest not in banked_digests:
            banked_digests.add(digest)
            command = f"repro fuzz --seed {config.seed}"
            backend = resolve_backend(config.backend).name
            if backend != DEFAULT_BACKEND:
                command += f" --backend {backend}"
            entry = CorpusEntry(
                spec=shrunk.replace(name=f"cx-{digest}"),
                description="; ".join(
                    str(failure) for failure in final_verdict.failures
                ),
                source=f"{command} (program seed {spec.seed})",
            )
            corpus_path = str(save_entry(config.corpus_dir, entry))
            get_telemetry().counter("fuzz.corpus.saved").inc()
    return Counterexample(
        original=spec,
        shrunk=shrunk,
        verdict=final_verdict,
        shrink_steps=steps,
        shrink_attempts=attempts,
        corpus_path=corpus_path,
    )


def entry_satisfied(entry: CorpusEntry, verdict: OracleVerdict) -> bool:
    """Did *verdict* match the entry's committed expectation?

    Most entries expect a clean oracle pass.  ``expect="classic-fault"``
    entries (budget exhaustion, scheduled traps) exist to pin fault
    parity: the classic run faults, the oracle reports *invalid*, and
    success means it got there with zero failures — a backend that
    faults differently produces a failure before the invalid marker.
    """
    if entry.expect == EXPECT_CLASSIC_FAULT:
        return verdict.invalid and not verdict.failures
    return verdict.ok


@dataclasses.dataclass
class ReplayReport:
    """Verdicts of one corpus replay, failures first when rendering."""

    verdicts: List[Tuple[CorpusEntry, OracleVerdict]]

    @property
    def failures(self) -> List[Tuple[CorpusEntry, OracleVerdict]]:
        return [
            (e, v) for e, v in self.verdicts if not entry_satisfied(e, v)
        ]

    @property
    def ok(self) -> bool:
        return not self.failures


def replay_corpus(
    directory: str,
    model: Optional[EnergyModel] = None,
    policies: Optional[Sequence[str]] = None,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    backend: Union[str, Backend, None] = None,
) -> ReplayReport:
    """Re-run every committed corpus entry through the oracle."""
    if not Path(directory).is_dir():
        raise FileNotFoundError(f"corpus directory {directory} does not exist")
    model = model or default_fuzz_model()
    telemetry = get_telemetry()
    verdicts: List[Tuple[CorpusEntry, OracleVerdict]] = []
    for entry in load_corpus(directory):
        verdict = check_spec(
            entry.spec,
            model=model,
            policies=policies or entry.policies or POLICY_NAMES,
            max_instructions=entry.max_instructions or max_instructions,
            backend=backend,
        )
        telemetry.counter(
            "fuzz.corpus.replayed",
            result="ok" if entry_satisfied(entry, verdict) else "failed",
        ).inc()
        verdicts.append((entry, verdict))
    return ReplayReport(verdicts=verdicts)


__all__ = [
    "Counterexample",
    "FuzzConfig",
    "FuzzResult",
    "ReplayReport",
    "replay_corpus",
    "run_fuzz",
]
