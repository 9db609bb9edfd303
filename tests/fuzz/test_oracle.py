"""The differential oracle: clean on main, loud on injected bugs."""

import dataclasses

import pytest

from repro.core.policies import POLICY_NAMES
from repro.fuzz import (
    EagerFireCPU,
    Produce,
    ProgramSpec,
    Reload,
    SkipHistReadCPU,
    Store,
    check_spec,
    default_fuzz_model,
    random_spec,
)
from repro.fuzz.spec import Gap


@pytest.fixture(scope="module")
def model():
    return default_fuzz_model()


def hist_leaf_spec():
    """A spec whose slice depends on a Hist checkpoint (non-zero value)."""
    return ProgramSpec(
        name="hist-leaf",
        iterations=4,
        slot_words=8,
        statements=(
            Produce(temp="t0", source="roload", chain=(("add", 3),), ro_stride=1),
            Store(temp="t0", offset=0),
            Gap(count=4, stride=2),
            Reload(offset=0),
        ),
    )


def test_generated_programs_pass_under_every_policy(model):
    for seed in range(20):
        verdict = check_spec(random_spec(seed), model=model)
        # A live generated trap faults the classic run by design; the
        # spec is invalid for amnesic comparison, never *failing*.
        assert verdict.ok or (verdict.invalid and not verdict.failures), (
            f"seed {seed}: {verdict.summary()}"
        )
        assert verdict.policies == POLICY_NAMES


def test_oracle_reports_slice_counts(model):
    verdict = check_spec(hist_leaf_spec(), model=model)
    assert verdict.ok
    assert verdict.slice_count >= 1
    assert verdict.instruction_count > 0


def test_check_program_runs_one_classic_cpu(model, monkeypatch):
    # The profiling run doubles as the classic baseline: one check runs
    # the classic program once, however many binaries it compiles.
    from repro.core.amnesic_cpu import AmnesicCPU
    from repro.fuzz import materialize
    from repro.fuzz.oracle import check_program
    from repro.machine.cpu import CPU

    classic_runs = []
    original = CPU.run

    def counting_run(self):
        if not isinstance(self, AmnesicCPU):
            classic_runs.append(type(self).__name__)
        return original(self)

    monkeypatch.setattr(CPU, "run", counting_run)
    verdict = check_program(materialize(hist_leaf_spec()), model=model)
    assert verdict.ok, verdict.summary()
    assert len(classic_runs) == 1, classic_runs


def test_classic_fault_marks_spec_invalid_not_failing(model):
    verdict = check_spec(
        hist_leaf_spec(), model=model, max_instructions=10
    )
    assert verdict.invalid
    assert not verdict.is_counterexample
    assert "classic" in verdict.invalid_reason


def test_unmaterialisable_spec_is_invalid(model):
    spec = dataclasses.replace(hist_leaf_spec(), iterations=0)
    verdict = check_spec(spec, model=model)
    assert verdict.invalid
    assert "materialise" in verdict.invalid_reason


def test_skip_hist_read_bug_is_caught(model):
    """The ISSUE's injected bug: Hist lookups skipped during traversal.

    REC still records and readiness still passes, so the scheduler fires
    — but checkpointed operands arrive as zero and the recomputed value
    diverges from what the load would have returned.
    """
    verdict = check_spec(
        hist_leaf_spec(),
        model=model,
        policies=("Compiler",),
        cpu_cls=SkipHistReadCPU,
    )
    assert verdict.is_counterexample
    kinds = {failure.kind for failure in verdict.failures}
    assert "equivalence" in kinds


def test_skip_hist_read_bug_survives_across_policies(model):
    verdict = check_spec(hist_leaf_spec(), model=model, cpu_cls=SkipHistReadCPU)
    failing_policies = {failure.policy for failure in verdict.failures}
    # Every always-fire policy that traverses the Hist-leaf slice must
    # diverge; probing policies may legitimately skip on L1 hits.
    assert "Compiler" in failing_policies


def test_eager_fire_bug_surfaces_as_failure_not_crash(model):
    # Firing without the readiness check either faults on the missing
    # checkpoint or recomputes garbage; the oracle must report a
    # failure either way, never propagate the exception.
    found = False
    for seed in range(30):
        verdict = check_spec(
            random_spec(seed),
            model=model,
            policies=("Compiler",),
            cpu_cls=EagerFireCPU,
        )
        if verdict.is_counterexample:
            found = True
            break
    assert found, "no generated program tripped the eager-fire bug"


def test_clean_cpu_on_the_same_specs_stays_clean(model):
    """The bug tests above prove detection; this proves specificity."""
    verdict = check_spec(hist_leaf_spec(), model=model)
    assert verdict.ok, verdict.summary()
