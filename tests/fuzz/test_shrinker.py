"""Shrinking: injected bugs reduce to minimal readable counterexamples."""

from repro.fuzz import (
    FuzzConfig,
    check_spec,
    default_fuzz_model,
    materialize,
    run_fuzz,
    shrink_spec,
)
from repro.fuzz.faults import SKIP_HIST_READ
from repro.fuzz.shrinker import MIN_ITERATIONS, candidate_specs, instruction_count
from repro.fuzz.spec import validate_spec
from repro.fuzz.generator import random_spec


def test_candidates_are_strictly_simpler_and_valid():
    spec = random_spec(1)
    original_size = len(spec.statements)
    for candidate in candidate_specs(spec):
        assert len(candidate.statements) <= original_size
        assert candidate.iterations <= spec.iterations
        # Candidates may orphan a temp reference (that's fine — the
        # predicate filters them), but never break spec-level bounds.
        if candidate.iterations != spec.iterations:
            assert candidate.iterations >= MIN_ITERATIONS


def test_shrinker_respects_the_failure_predicate():
    spec = random_spec(1)
    # Predicate: fails iff a Gap statement survives.  The shrinker must
    # keep at least one Gap while deleting everything else it can.
    def has_gap(candidate):
        validate_spec(candidate)
        return any(s.kind == "gap" for s in candidate.statements)

    if not has_gap(spec):
        spec = random_spec(3)
        assert has_gap(spec)
    result = shrink_spec(spec, has_gap)
    assert has_gap(result.spec)
    assert result.steps > 0
    assert len(result.spec.statements) < len(spec.statements)


def test_shrink_is_bounded():
    spec = random_spec(1)
    result = shrink_spec(spec, lambda candidate: True, max_attempts=10)
    assert result.attempts <= 10


def test_injected_scheduler_bug_shrinks_to_small_counterexample():
    """The PR's acceptance bar: a deliberately injected scheduler bug
    (Hist lookups skipped during slice traversal) is caught by a short
    campaign and shrunk to a <= 15-instruction counterexample.
    """
    model = default_fuzz_model()
    config = FuzzConfig(
        seed=0,
        iterations=40,
        policies=("Compiler",),
        backend=SKIP_HIST_READ,
        max_counterexamples=1,
    )
    result = run_fuzz(config, model=model)
    assert result.counterexamples, "the injected bug was never caught"
    cx = result.counterexamples[0]
    assert cx.verdict.is_counterexample
    shrunk_size = len(materialize(cx.shrunk).instructions)
    original_size = len(materialize(cx.original).instructions)
    assert shrunk_size <= 15, materialize(cx.shrunk).render()
    assert shrunk_size <= original_size
    assert cx.shrink_steps > 0
    # The reduced spec still fails for the same reason on a fresh check.
    replay = check_spec(
        cx.shrunk, model=model, policies=("Compiler",), backend=SKIP_HIST_READ
    )
    assert replay.is_counterexample
    assert instruction_count(cx.shrunk) == shrunk_size
