"""Campaign behaviour: determinism, telemetry, banking, budgets."""

from repro.fuzz import (
    FuzzConfig,
    default_fuzz_model,
    load_corpus,
    replay_corpus,
    run_fuzz,
)
from repro.fuzz.corpus import EXPECT_CLASSIC_FAULT
from repro.fuzz.faults import SKIP_HIST_READ, late_flush, unprobed_l2
from repro.telemetry.runtime import telemetry_session


def campaign_fingerprint(result):
    payload = result.to_json()
    payload.pop("elapsed_s")
    return payload


def test_campaign_is_deterministic():
    model = default_fuzz_model()
    config = FuzzConfig(seed=3, iterations=15)
    first = run_fuzz(config, model=model)
    second = run_fuzz(config, model=model)
    assert campaign_fingerprint(first) == campaign_fingerprint(second)
    assert first.programs == 15
    assert first.ok


def test_campaign_emits_the_issue_counters():
    model = default_fuzz_model()
    with telemetry_session() as telemetry:
        run_fuzz(FuzzConfig(seed=0, iterations=5), model=model)
        registry = telemetry.registry
        assert registry.value("fuzz.programs") == 5
        assert registry.get("fuzz.program_instructions").count == 5
        # A clean campaign reports no mismatches and no shrink work.
        assert registry.value("fuzz.oracle.mismatches") is None
        assert registry.value("fuzz.shrink.steps") is None


def test_failing_campaign_counts_mismatches_and_shrink_steps():
    model = default_fuzz_model()
    config = FuzzConfig(
        seed=0,
        iterations=40,
        policies=("Compiler",),
        backend=SKIP_HIST_READ,
        max_counterexamples=1,
    )
    with telemetry_session() as telemetry:
        result = run_fuzz(config, model=model)
        assert result.counterexamples
        assert telemetry.registry.value("fuzz.oracle.mismatches") >= 1
        assert telemetry.registry.value("fuzz.shrink.steps") >= 1


def test_counterexamples_are_banked_and_deduplicated(tmp_path):
    model = default_fuzz_model()
    corpus_dir = str(tmp_path / "corpus")
    config = FuzzConfig(
        seed=0,
        iterations=40,
        policies=("Compiler",),
        backend=SKIP_HIST_READ,
        max_counterexamples=1,
        corpus_dir=corpus_dir,
    )
    first = run_fuzz(config, model=model)
    assert first.counterexamples[0].corpus_path is not None
    banked = load_corpus(corpus_dir)
    assert len(banked) == 1
    assert banked[0].spec.digest() == first.counterexamples[0].shrunk.digest()
    # The entry and the report both name the backend that failed.
    assert banked[0].source.startswith(
        "repro fuzz --seed 0 --backend skip-hist-read --policies Compiler "
        "(program seed "
    )
    assert first.to_json()["backend"] == "skip-hist-read"

    # A second identical campaign rediscovers the bug but banks nothing new.
    second = run_fuzz(config, model=model)
    assert second.counterexamples[0].corpus_path is None
    assert len(load_corpus(corpus_dir)) == 1


def test_time_budget_stops_the_campaign():
    model = default_fuzz_model()
    result = run_fuzz(
        FuzzConfig(seed=0, iterations=10_000, time_budget_s=0.0), model=model
    )
    assert result.stopped_early == "time-budget"
    assert result.programs < 10_000


def test_max_counterexamples_stops_the_campaign():
    model = default_fuzz_model()
    result = run_fuzz(
        FuzzConfig(
            seed=0,
            iterations=200,
            policies=("Compiler",),
            backend=SKIP_HIST_READ,
            max_counterexamples=1,
            shrink=False,
        ),
        model=model,
    )
    assert result.stopped_early == "max-counterexamples"
    assert len(result.counterexamples) == 1
    # Without shrinking the original spec is reported untouched.
    cx = result.counterexamples[0]
    assert cx.shrunk == cx.original
    assert cx.shrink_steps == 0


def test_replay_corpus_runs_every_entry(tmp_path):
    model = default_fuzz_model()
    corpus_dir = str(tmp_path / "corpus")
    config = FuzzConfig(
        seed=0,
        iterations=40,
        policies=("Compiler",),
        backend=SKIP_HIST_READ,
        max_counterexamples=1,
        corpus_dir=corpus_dir,
    )
    run_fuzz(config, model=model)

    # Replayed against the healthy scheduler, the banked counterexample
    # passes; replayed against the buggy one, it fails again.
    healthy = replay_corpus(corpus_dir, model=model, policies=("Compiler",))
    assert healthy.ok
    buggy = replay_corpus(
        corpus_dir,
        model=model,
        policies=("Compiler",),
        backend=SKIP_HIST_READ,
    )
    assert not buggy.ok
    assert len(buggy.failures) == 1


def test_fault_parity_counterexamples_are_banked(tmp_path):
    # Program 0 of seed 0 traps under classic, so its verdict is
    # invalid; the broken batcher still miscounts the fused trap.
    model = default_fuzz_model()
    corpus_dir = str(tmp_path / "corpus")
    config = FuzzConfig(
        seed=0,
        iterations=5,
        policies=("Compiler",),
        backend="fast-batched",
        max_counterexamples=1,
        corpus_dir=corpus_dir,
    )
    with late_flush():
        result = run_fuzz(config, model=model)
    (cx,) = result.counterexamples
    assert cx.verdict.invalid and cx.verdict.failures
    assert cx.shrink_steps >= 1
    (entry,) = load_corpus(corpus_dir)
    assert entry.spec.digest() == cx.shrunk.digest()
    assert entry.expect == EXPECT_CLASSIC_FAULT
    # The fixed batcher reproduces the classic fault exactly.
    assert replay_corpus(corpus_dir, model=model, backend="fast-batched").ok
    with late_flush():
        assert not replay_corpus(corpus_dir, model=model, backend="fast-batched").ok


def test_banked_entries_keep_the_campaigns_policies_and_budget(tmp_path):
    # The L2-probe twin is a fast-path decision regenerated in place, so
    # the campaign names plain fast-batched; LLC alone exercises it.
    model = default_fuzz_model()
    corpus_dir = str(tmp_path / "corpus")
    config = FuzzConfig(
        seed=0,
        iterations=10,
        policies=("LLC",),
        max_instructions=150_000,
        backend="fast-batched",
        max_counterexamples=1,
        corpus_dir=corpus_dir,
    )
    with unprobed_l2():
        result = run_fuzz(config, model=model)
    assert result.counterexamples
    (entry,) = load_corpus(corpus_dir)
    assert entry.policies == ("LLC",)
    assert entry.max_instructions == 150_000
    assert entry.source == (
        "repro fuzz --seed 0 --backend fast-batched --policies LLC "
        "(program seed 1)"
    )
    assert replay_corpus(corpus_dir, model=model, backend="fast-batched").ok
