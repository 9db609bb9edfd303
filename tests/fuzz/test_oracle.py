"""The differential oracle: clean on main, loud on injected bugs."""

import dataclasses

import pytest

from repro.core.policies import POLICY_NAMES
from repro.fuzz import (
    Produce,
    ProgramSpec,
    Reload,
    Store,
    check_backend_equivalence,
    check_program,
    check_spec,
    default_fuzz_model,
    materialize,
    random_spec,
)
from repro.fuzz import oracle
from repro.fuzz.faults import EAGER_FIRE, SKIP_HIST_READ
from repro.fuzz.spec import Gap
from repro.machine.cpu import CPU


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


def count_work(monkeypatch):
    """Count profiles, compiles and ``run`` calls (by CPU class)."""
    work = {"profiles": [], "compiles": 0, "runs": {}}
    profile, compile_, run = (
        oracle.profile_program, oracle.compile_amnesic, CPU.run
    )

    def counting_profile(*args, **kwargs):
        result = profile(*args, **kwargs)
        work["profiles"].append(type(result.cpu))
        return result

    def counting_compile(*args, **kwargs):
        work["compiles"] += 1
        return compile_(*args, **kwargs)

    def counting_run(self):
        name = type(self).__name__
        work["runs"][name] = work["runs"].get(name, 0) + 1
        return run(self)

    monkeypatch.setattr(oracle, "profile_program", counting_profile)
    monkeypatch.setattr(oracle, "compile_amnesic", counting_compile)
    monkeypatch.setattr(CPU, "run", counting_run)
    return work


#: Per valid program: the profiling run doubles as the classic baseline
#: and the plain reference, and each policy runs once per backend.
EXACT_RUNS = {
    "classic": {"CPU": 1, "AmnesicCPU": 5},
    "fast-batched": {
        "CPU": 1,
        "AmnesicCPU": 5,
        "BatchedFastCPU": 1,
        "BatchedFastAmnesicCPU": 5,
    },
}


@pytest.mark.parametrize(
    ("backend", "check"),
    [
        ("classic", check_program),
        ("fast-batched", check_program),
        ("fast-batched", check_backend_equivalence),
    ],
    ids=["classic", "fast-batched", "backend-equivalence"],
)
def test_check_program_work_is_exact(backend, check, model, monkeypatch):
    work = count_work(monkeypatch)
    verdict = check(materialize(hist_leaf_spec()), model=model, backend=backend)
    assert verdict.ok, verdict.summary()
    assert work["profiles"] == [CPU]
    assert work["compiles"] == 2
    assert work["runs"] == EXACT_RUNS[backend]


def test_reference_stays_classic_under_the_environment(model, monkeypatch):
    # $REPRO_BACKEND picks the backend under test, never the reference:
    # the profile and the reference amnesic runs stay classic.
    monkeypatch.setenv("REPRO_BACKEND", "fast-batched")
    work = count_work(monkeypatch)
    verdict = check_spec(hist_leaf_spec(), model=model)
    assert verdict.ok, verdict.summary()
    assert work["profiles"] == [CPU]
    assert work["runs"] == EXACT_RUNS["fast-batched"]


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
        backend=SKIP_HIST_READ,
    )
    assert verdict.is_counterexample
    kinds = {failure.kind for failure in verdict.failures}
    assert "equivalence" in kinds


def test_skip_hist_read_bug_survives_across_policies(model):
    verdict = check_spec(hist_leaf_spec(), model=model, backend=SKIP_HIST_READ)
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
            backend=EAGER_FIRE,
        )
        if verdict.is_counterexample:
            found = True
            break
    assert found, "no generated program tripped the eager-fire bug"


def test_clean_cpu_on_the_same_specs_stays_clean(model):
    """The bug tests above prove detection; this proves specificity."""
    verdict = check_spec(hist_leaf_spec(), model=model)
    assert verdict.ok, verdict.summary()
