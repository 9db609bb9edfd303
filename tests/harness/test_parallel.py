"""Parallel evaluation engine and persistent result cache.

The contract under test is the ISSUE's acceptance bar: a suite
evaluated with ``jobs=1`` and ``jobs=4`` must produce identical
per-policy energy/time/EDP numbers and identical merged telemetry
counter totals, and a warm on-disk cache must serve repeat runs without
a single policy evaluation.
"""

import dataclasses
import pickle

import pytest

from repro.energy import EnergyModel
from repro.energy.tech import paper_energy_model
from repro.harness import (
    ParallelEvaluationError,
    ResultCache,
    ResultKey,
    SuiteRunner,
    WorkUnit,
    evaluate_many,
    evaluate_unit,
)
from repro.telemetry.registry import format_series
from repro.telemetry.runtime import telemetry_session
from repro.telemetry.sink import reconstruct_spans
from repro.telemetry.summary import phase_totals

BENCHMARKS = ["bfs", "is"]
SCALE = 0.25


def counter_totals(registry):
    """Every counter series as ``{rendered-name: value}``."""
    return {
        format_series(metric.name, metric.labels): metric.value
        for metric in registry.series()
        if metric.kind == "counter"
    }


@pytest.fixture(scope="module")
def serial_run():
    with telemetry_session(collect_events=True) as telemetry:
        results = SuiteRunner(scale=SCALE, jobs=1).results(BENCHMARKS)
        counters = counter_totals(telemetry.registry)
        events = list(telemetry.sink.events)
    return results, counters, events


@pytest.fixture(scope="module")
def parallel_run():
    with telemetry_session(collect_events=True) as telemetry:
        results = SuiteRunner(scale=SCALE, jobs=4).results(BENCHMARKS)
        counters = counter_totals(telemetry.registry)
        events = list(telemetry.sink.events)
    return results, counters, events


@pytest.mark.integration
def test_parallel_results_identical_to_serial(serial_run, parallel_run):
    serial, _, _ = serial_run
    parallel, _, _ = parallel_run
    assert list(serial) == list(parallel) == BENCHMARKS  # deterministic order
    for benchmark in BENCHMARKS:
        assert list(serial[benchmark]) == list(parallel[benchmark])
        for policy, expected in serial[benchmark].items():
            got = parallel[benchmark][policy]
            assert got.amnesic.energy_nj == expected.amnesic.energy_nj
            assert got.amnesic.time_ns == expected.amnesic.time_ns
            assert got.classic.energy_nj == expected.classic.energy_nj
            assert got.edp_gain_percent == expected.edp_gain_percent
            assert got.energy_gain_percent == expected.energy_gain_percent
            assert got.time_gain_percent == expected.time_gain_percent


@pytest.mark.integration
def test_parallel_merged_counter_totals_match_serial(serial_run, parallel_run):
    _, serial_counters, _ = serial_run
    _, parallel_counters, _ = parallel_run
    assert serial_counters == parallel_counters


@pytest.mark.integration
def test_parallel_merges_worker_decision_events(serial_run, parallel_run):
    """Per-RCMP decision records survive the cross-process merge."""
    _, _, serial_events = serial_run
    _, _, parallel_events = parallel_run

    def rcmp_count(events):
        return sum(1 for event in events if event.get("type") == "rcmp")

    assert rcmp_count(parallel_events) == rcmp_count(serial_events) > 0


@pytest.mark.integration
def test_warm_disk_cache_skips_every_evaluation(tmp_path, serial_run):
    cache_dir = str(tmp_path / "results")
    warmed = SuiteRunner(scale=SCALE, jobs=2, cache_dir=cache_dir)
    first = warmed.results(BENCHMARKS)
    assert len(warmed.result_cache) == len(BENCHMARKS)

    fresh = SuiteRunner(scale=SCALE, jobs=2, cache_dir=cache_dir)
    with telemetry_session() as telemetry:
        second = fresh.results(BENCHMARKS)
        counters = counter_totals(telemetry.registry)

    # Cache-hit counters only: no run stats, no compile counters, no
    # misses.  The per-layer verdict counter and the bare operational
    # counter (`repro stats` disk-io line) tick together on every hit.
    assert counters == {
        "suite.result_cache{result=hit}": len(BENCHMARKS),
        "cache.hits": len(BENCHMARKS),
    }
    serial, _, _ = serial_run
    for benchmark in BENCHMARKS:
        for policy, expected in serial[benchmark].items():
            assert second[benchmark][policy].edp_gain_percent == (
                expected.edp_gain_percent
            )
    assert list(first) == list(second) == BENCHMARKS


@pytest.mark.integration
def test_pool_metrics_flow_into_merged_registry():
    """Batch utilisation lands in the parent registry as histograms,
    gauges, and one ``pool`` event per unit — never counters, so the
    serial-vs-parallel counter equality above stays intact."""
    from repro.telemetry.summary import pool_stats

    units = [
        WorkUnit(benchmark=name, scale=SCALE, policies=("FLC",))
        for name in BENCHMARKS
    ]
    with telemetry_session(collect_events=True) as telemetry:
        evaluate_many(units, jobs=2)
        stats = pool_stats(telemetry.registry)
        events = list(telemetry.sink.events)
        counters = counter_totals(telemetry.registry)

    assert stats["workers"] == 2
    assert stats["unit_s"]["count"] == len(BENCHMARKS)
    assert stats["queue_wait_s"]["count"] == len(BENCHMARKS)
    assert stats["unit_s"]["max"] > 0
    assert stats["straggler_max_s"] >= stats["straggler_median_s"] > 0
    assert stats["straggler_ratio"] >= 1.0
    assert stats["busy_s"] and all(
        busy > 0 for busy in stats["busy_s"].values()
    )
    pool_events = [event for event in events if event.get("type") == "pool"]
    assert len(pool_events) == len(BENCHMARKS)
    assert {event["benchmark"] for event in pool_events} == set(BENCHMARKS)
    assert all(not name.startswith("pool.") for name in counters)


def test_work_unit_and_envelope_are_picklable():
    unit = WorkUnit(benchmark="bfs", scale=SCALE, model=paper_energy_model())
    clone = pickle.loads(pickle.dumps(unit))
    assert clone.benchmark == "bfs"
    assert clone.model.fingerprint() == unit.model.fingerprint()


@pytest.mark.integration
def test_evaluate_unit_without_capture_returns_bare_envelope():
    unit = WorkUnit(
        benchmark="bfs", scale=SCALE, policies=("FLC",),
        capture_metrics=False, capture_events=False,
    )
    envelope = evaluate_unit(unit)
    assert set(envelope.comparisons) == {"FLC"}
    assert envelope.metrics == []
    assert envelope.events == []


@pytest.mark.integration
def test_evaluate_many_preserves_unit_order():
    units = [
        WorkUnit(benchmark=name, scale=SCALE, policies=("FLC",))
        for name in ("is", "bfs")
    ]
    envelopes = evaluate_many(units, jobs=2)
    assert [envelope.benchmark for envelope in envelopes] == ["is", "bfs"]


# ----------------------------------------------------------------------
# Merge-back edge cases: worker failure and cross-process span nesting.
# ----------------------------------------------------------------------
DOOMED = "__doomed__"


def _exit_on_doomed(unit):
    """evaluate_unit wrapper simulating a hard worker death (OOM kill)."""
    if unit.benchmark == DOOMED:
        import os

        os._exit(1)
    return evaluate_unit(unit)


def merged_counter_totals(envelopes):
    """Expected parent counter totals from a set of envelope dumps."""
    totals = {}
    for envelope in envelopes:
        for entry in envelope.metrics:
            if entry["kind"] != "counter":
                continue
            name = format_series(
                entry["name"], tuple(tuple(kv) for kv in entry["labels"])
            )
            totals[name] = totals.get(name, 0) + entry["value"]
    return totals


@pytest.mark.integration
def test_unknown_benchmark_fails_batch_but_merges_survivors():
    units = [
        WorkUnit(benchmark="bfs", scale=SCALE, policies=("FLC",)),
        WorkUnit(benchmark="no-such-benchmark", scale=SCALE),
        WorkUnit(benchmark="is", scale=SCALE, policies=("FLC",)),
    ]
    with telemetry_session() as telemetry:
        with pytest.raises(ParallelEvaluationError) as excinfo:
            evaluate_many(units, jobs=2)
        counters = counter_totals(telemetry.registry)
    error = excinfo.value
    assert [name for name, _ in error.failures] == ["no-such-benchmark"]
    assert "no-such-benchmark" in str(error)
    survivors = error.envelopes
    assert [envelope.benchmark for envelope in survivors] == ["bfs", "is"]
    # Survivors' telemetry merged exactly once: the parent counters are
    # precisely the sum of the surviving dumps — nothing lost, nothing
    # double-counted.
    expected = merged_counter_totals(survivors)
    for name, value in expected.items():
        assert counters[name] == value, name


@pytest.mark.integration
def test_worker_death_mid_batch_keeps_completed_results(monkeypatch):
    """A worker hard-killed mid-batch costs its units, not the batch.

    Relies on the fork start method: the monkeypatched module function
    is inherited by pool workers.  Which units complete before the pool
    breaks is timing-dependent, so the assertions are written against
    whatever survived rather than a fixed completion set.
    """
    import repro.harness.parallel as parallel_module

    monkeypatch.setattr(parallel_module, "evaluate_unit", _exit_on_doomed)
    units = [
        WorkUnit(benchmark="bfs", scale=SCALE, policies=("FLC",)),
        WorkUnit(benchmark=DOOMED, scale=SCALE),
        WorkUnit(benchmark="is", scale=SCALE, policies=("FLC",)),
    ]
    with telemetry_session() as telemetry:
        with pytest.raises(ParallelEvaluationError) as excinfo:
            evaluate_many(units, jobs=2)
        counters = counter_totals(telemetry.registry)
    error = excinfo.value
    failed = {name for name, _ in error.failures}
    assert DOOMED in failed
    survivors = error.envelopes
    assert {envelope.benchmark for envelope in survivors} | failed == {
        "bfs", DOOMED, "is"
    }
    assert all(e.benchmark != DOOMED for e in survivors)
    expected = merged_counter_totals(survivors)
    for name, value in expected.items():
        assert counters[name] == value, name


@pytest.mark.integration
def test_merged_spans_nest_workers_under_parallel_span():
    units = [
        WorkUnit(benchmark=name, scale=SCALE, policies=("FLC",))
        for name in ("bfs", "is")
    ]
    with telemetry_session(collect_events=True) as telemetry:
        evaluate_many(units, jobs=2)
        events = list(telemetry.sink.events)

    span_ids = [e["span"] for e in events if e.get("type") == "span_open"]
    assert len(span_ids) == len(set(span_ids)), "span ids must be unique"

    (root,) = reconstruct_spans(events)
    assert root.name == "suite.parallel"
    children = [child.name for child in root.children]
    assert children == ["suite.benchmark"] * len(units)
    benchmarks = [child.span.attrs["benchmark"] for child in root.children]
    assert sorted(benchmarks) == ["bfs", "is"]
    # Worker-side nesting survives too: each benchmark span keeps its
    # in-worker children (per-policy evaluation spans).
    assert all(child.children for child in root.children)
    workers = {
        e.get("worker")
        for e in events
        if e.get("type") == "span_open" and e.get("worker") is not None
    }
    assert len(workers) >= 1  # merged events carry worker pids


@pytest.mark.integration
def test_worker_spans_join_the_parent_tree_without_a_sink():
    """The run ledger and ``repro stats`` read the parent's span tree.

    Without an event sink, ``jobs=2`` must still record every phase
    ``jobs=1`` records, plus the ``suite.parallel`` fan-out span.
    """

    def phases(jobs):
        with telemetry_session() as telemetry:
            runner = SuiteRunner(scale=SCALE, jobs=jobs, policies=("FLC",))
            runner.results(BENCHMARKS)
            return {total.name for total in phase_totals(telemetry.tracer.tree())}

    assert phases(2) == phases(1) | {"suite.parallel"}


# ----------------------------------------------------------------------
# ResultCache / ResultKey unit behaviour (no simulation needed).
# ----------------------------------------------------------------------
def make_key(fingerprint="abc123", benchmark="bfs"):
    return ResultKey(
        benchmark=benchmark,
        scale=0.25,
        policies=("Compiler", "FLC"),
        model_fingerprint=fingerprint,
        max_instructions=5_000_000,
    )


def test_result_cache_roundtrip(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = make_key()
    assert cache.get(key) is None
    cache.put(key, {"FLC": 42})
    assert cache.get(key) == {"FLC": 42}
    assert len(cache) == 1
    assert cache.clear() == 1
    assert cache.get(key) is None


def test_result_cache_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = make_key()
    cache.put(key, {"FLC": 42})
    cache.entries()[0].write_bytes(b"not a pickle")
    assert cache.get(key) is None  # corrupt -> miss, and the entry is gone
    assert len(cache) == 0


def test_result_key_digest_tracks_model_fingerprint():
    base = make_key(fingerprint="aaaa")
    assert base.digest() == make_key(fingerprint="aaaa").digest()
    assert base.digest() != make_key(fingerprint="bbbb").digest()
    assert base.digest() != make_key(benchmark="is").digest()


def test_result_key_digest_is_backend_namespaced():
    # "classic" must hash identically to a pre-backend key (same JSON
    # payload), so warm caches from before the backend field existed
    # keep serving classic results; any other backend gets its own
    # namespace and therefore always runs cold the first time.
    base = make_key()
    assert base.backend == "classic"
    assert base.digest() == dataclasses.replace(base, backend="classic").digest()
    fast = dataclasses.replace(base, backend="fast-batched")
    assert fast.digest() != base.digest()
    assert (
        fast.digest()
        == dataclasses.replace(base, backend="fast-batched").digest()
    )


def test_model_fingerprint_is_stable_by_value():
    first = paper_energy_model()
    second = paper_energy_model()
    assert first is not second
    assert first.fingerprint() == second.fingerprint()
    scaled = EnergyModel(epi=first.epi.scaled_nonmem(2.0), config=first.config)
    assert scaled.fingerprint() != first.fingerprint()
    unscaled = paper_energy_model(scaled=False)
    assert unscaled.fingerprint() != first.fingerprint()
