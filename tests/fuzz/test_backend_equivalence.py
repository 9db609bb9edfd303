"""Classic-vs-fast-batched backend equivalence over the corpus.

Every committed corpus entry replays
through each non-classic backend and must match the classic interpreter
on registers, the memory image, and the energy accounts — under plain
classic semantics *and* under every amnesic policy.  Entries that
expect a classic fault (scheduled traps, tight budgets) must reproduce
the fault with parity: an *invalid* verdict with zero failures.  A
seeded ``check_spec`` round additionally runs the standard
amnesic-vs-classic oracle with the fast amnesic CPU substituted,
pinning the backends against each other through the full differential
pipeline.
"""

from pathlib import Path

import pytest

from repro.core.policies import POLICY_NAMES
from repro.errors import ReproError
from repro.fuzz import (
    check_backend_equivalence,
    check_spec,
    default_fuzz_model,
    generate_specs,
    load_entry,
    materialize,
)
from repro.fuzz.corpus import EXPECT_CLASSIC_FAULT, corpus_paths
from repro.fuzz.oracle import DEFAULT_MAX_INSTRUCTIONS

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

#: Fixed seed so CI failures reproduce locally from the same specs.
BACKEND_FUZZ_SEED = 0xA32E51AC

#: Every backend that must match classic bit-for-bit.
NON_CLASSIC_BACKENDS = ("fast-batched",)


def entry_ids():
    return [path.stem for path in corpus_paths(CORPUS_DIR)]


@pytest.fixture(scope="module")
def model():
    return default_fuzz_model()


def assert_matches_expectation(entry, verdict):
    if entry.expect == EXPECT_CLASSIC_FAULT:
        assert verdict.invalid and not verdict.failures, (
            f"{entry.name}: expected classic fault with backend parity, "
            f"got {verdict.summary()}"
        )
    else:
        assert verdict.ok, f"{entry.name}: {verdict.summary()}"


@pytest.mark.parametrize("backend", NON_CLASSIC_BACKENDS)
@pytest.mark.parametrize("path", corpus_paths(CORPUS_DIR), ids=entry_ids())
def test_corpus_entry_matches_classic_under_backend(path, backend, model):
    entry = load_entry(path)
    verdict = check_backend_equivalence(
        materialize(entry.spec),
        spec=entry.spec,
        model=model,
        policies=entry.policies or POLICY_NAMES,
        max_instructions=entry.max_instructions or DEFAULT_MAX_INSTRUCTIONS,
        backend=backend,
    )
    assert_matches_expectation(entry, verdict)


def test_seeded_fuzz_round_with_fast_amnesic_cpu(model):
    # The standard oracle, but the amnesic side runs on the fast
    # backend: amnesic-vs-classic equivalence must hold regardless of
    # which backend executes the binary.
    from repro.core.backend import BACKENDS

    fast_amnesic = BACKENDS["fast-batched"].amnesic_cls
    checked = 0
    for spec in generate_specs(BACKEND_FUZZ_SEED, 10):
        try:
            materialize(spec)
        except ReproError:
            continue
        verdict = check_spec(spec, model=model, cpu_cls=fast_amnesic)
        # A generated spec may carry a live trap; the classic fault makes
        # it invalid, which says nothing about the backend under test.
        assert verdict.ok or (verdict.invalid and not verdict.failures), (
            f"{spec.name}: {verdict.summary()}"
        )
        checked += 1
    assert checked >= 5, "seed produced too few materializable specs"


@pytest.mark.parametrize("backend", NON_CLASSIC_BACKENDS)
def test_seeded_backend_equivalence_round(backend, model):
    # Direct classic-vs-backend differential over generated programs,
    # under all five policies (the check runs each policy on both
    # backends).
    checked = 0
    for spec in generate_specs(BACKEND_FUZZ_SEED + 1, 10):
        try:
            program = materialize(spec)
        except ReproError:
            continue
        verdict = check_backend_equivalence(
            program, spec=spec, model=model, backend=backend
        )
        assert verdict.ok or (verdict.invalid and not verdict.failures), (
            f"{spec.name}: {verdict.summary()}"
        )
        checked += 1
    assert checked >= 5, "seed produced too few materializable specs"


def test_compilation_identical_across_profiling_backends(model):
    # The compiler's profiling run may execute on either backend: the
    # traced per-pc functions emit the classic event stream field for
    # field, so the dependence/load/locality profiles — and therefore
    # the compiled binary — must come out identical.
    from repro.compiler.amnesic_pass import compile_amnesic

    checked = 0
    for spec in generate_specs(BACKEND_FUZZ_SEED + 2, 8):
        try:
            program = materialize(spec)
        except ReproError:
            continue
        try:
            classic = compile_amnesic(program, model, backend="classic")
        except ReproError:
            continue  # uncompilable spec; backend choice is moot
        for backend in NON_CLASSIC_BACKENDS:
            fast = compile_amnesic(program, model, backend=backend)
            assert classic.swapped_load_pcs == fast.swapped_load_pcs, spec.name
            assert classic.rejected == fast.rejected, spec.name
            assert (
                classic.binary.program.instructions
                == fast.binary.program.instructions
            ), spec.name
            assert (
                classic.profile.stats.dynamic_instructions
                == fast.profile.stats.dynamic_instructions
            ), spec.name
        checked += 1
    assert checked >= 4, "seed produced too few compilable specs"


def test_backend_check_reports_fault_divergence_kind(model):
    # The failure channel itself: a program whose classic run faults
    # must produce a clean (fault-parity) verdict, not a crash.
    from repro.isa import ProgramBuilder

    b = ProgramBuilder()
    t = b.reg("t")
    b.li(t, 3)
    b.ret(t)
    b.halt()
    verdict = check_backend_equivalence(b.build(), model=model)
    assert not verdict.failures  # both backends faulted identically
    assert verdict.invalid  # classic faulted; parity was still checked
    assert "jump-register" in (verdict.invalid_reason or "")
