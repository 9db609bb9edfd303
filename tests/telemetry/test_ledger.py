"""Run ledger: durability, concurrency, lookup, and manifest hygiene.

The load-bearing property is the append contract: concurrent writers
(threads here, *forked processes* in the stress test) interleave whole
JSONL lines, never fragments, with no locking and no temp files — and a
reader sees every appended manifest exactly once, tolerating a torn
trailing line from a writer killed mid-append.
"""

import dataclasses
import json
import multiprocessing
import os

import pytest

from repro.telemetry.ledger import (
    LEDGER_FILENAME,
    LEDGER_SCHEMA_VERSION,
    AmbiguousRunId,
    LedgerReadResult,
    RunLedger,
    RunManifest,
    UnknownRunId,
    collect_manifest,
    diff_manifests,
    fidelity_summary,
    ledger_from_env,
    new_run_id,
    provenance,
    render_manifest,
    render_manifest_diff,
)


def make_manifest(**overrides) -> RunManifest:
    fields = dict(
        kind="run", command="repro run mcf", target="mcf",
        scale=0.5, backend="classic", policies=["FLC"],
        wall_s=1.5, instructions=1500, ips=1000.0,
    )
    fields.update(overrides)
    return RunManifest.new(**fields)


@pytest.fixture
def ledger(tmp_path):
    return RunLedger(tmp_path / "ledger")


# ----------------------------------------------------------------------
# Roundtrip and schema hygiene.
# ----------------------------------------------------------------------
def test_append_read_roundtrip(ledger):
    manifest = make_manifest(
        phases={"execute.classic": 0.9},
        cache={"disk": {"hit": 3}},
        cache_io={"hits": 3.0, "bytes_written": 1024.0},
        pool={"workers": 2},
        fidelity={"score": 0.8, "metrics": 5, "mean_abs_error_pp": 1.2},
        seed=7,
    )
    ledger.append(manifest)
    result = ledger.read()
    assert result.skipped_lines == 0
    assert len(result) == 1
    back = result[0]
    assert back == manifest
    assert back.schema_version == LEDGER_SCHEMA_VERSION


def test_manifest_new_stamps_identity_and_provenance():
    manifest = make_manifest()
    assert manifest.run_id
    assert manifest.created.endswith("Z")
    assert manifest.created_unix > 0
    source = provenance()
    assert manifest.python == source["python"]
    assert manifest.platform == source["platform"]
    assert manifest.git_sha == source["git_sha"]
    # Two manifests minted back to back never collide.
    assert make_manifest().run_id != make_manifest().run_id
    assert new_run_id() != new_run_id()


def test_unknown_fields_park_in_extra_and_survive_roundtrip(ledger):
    payload = make_manifest().to_json()
    payload["future_metric"] = 42
    payload["future_block"] = {"nested": True}
    manifest = RunManifest.from_json(payload)
    assert manifest.extra == {"future_metric": 42, "future_block": {"nested": True}}
    # Re-serialising flattens extra back out, so an old reader passing a
    # newer build's manifest through does not strip the new fields.
    ledger.append(manifest)
    raw = json.loads(ledger.path.read_text().splitlines()[0])
    assert raw["future_metric"] == 42
    assert raw["future_block"] == {"nested": True}


def test_torn_trailing_line_is_skipped_not_raised(ledger):
    ledger.append(make_manifest())
    ledger.append(make_manifest())
    whole = ledger.path.read_text()
    ledger.path.write_text(whole + whole.splitlines()[0][: len(whole) // 3])
    result = ledger.read()
    assert len(result) == 2
    assert result.skipped_lines == 1


def test_non_manifest_lines_are_counted_as_skipped(ledger):
    ledger.append(make_manifest())
    with open(ledger.path, "a", encoding="utf-8") as stream:
        stream.write("[1, 2, 3]\n")        # JSON, but not an object
        stream.write('{"no": "run_id"}\n')  # object, but not a manifest
        stream.write("\n")                  # blank lines are free
    result = ledger.read()
    assert len(result) == 1
    assert result.skipped_lines == 2


def test_empty_or_missing_ledger_reads_empty(ledger):
    result = ledger.read()
    assert list(result) == []
    assert result.skipped_lines == 0
    assert len(ledger) == 0


# ----------------------------------------------------------------------
# Selection and lookup.
# ----------------------------------------------------------------------
def test_select_filters_by_kind_target_backend(ledger):
    ledger.append(make_manifest(kind="run", target="mcf"))
    ledger.append(make_manifest(kind="bench", target="fig4"))
    ledger.append(make_manifest(kind="run", target="mcf", backend="fast"))
    assert len(ledger.select(kind="run")) == 2
    assert len(ledger.select(target="fig4")) == 1
    assert len(ledger.select(kind="run", backend="fast")) == 1
    assert len(ledger.select(kind="stats")) == 0
    latest = ledger.latest(kind="run", target="mcf")
    assert latest is not None and latest.backend == "fast"
    assert ledger.latest(kind="stats") is None


def test_get_accepts_unique_prefixes_and_rejects_ambiguity(ledger):
    first = ledger.append(make_manifest())
    second = ledger.append(make_manifest())
    assert ledger.get(first.run_id) == first
    # The random suffix makes the full id (and its tail) unique.
    assert ledger.get(first.run_id[:-2]).run_id == first.run_id
    with pytest.raises(UnknownRunId):
        ledger.get("no-such-run")
    shared = os.path.commonprefix([first.run_id, second.run_id])
    if shared:
        with pytest.raises(AmbiguousRunId):
            ledger.get(shared[:1])


def test_ledger_from_env(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_LEDGER_DIR", raising=False)
    assert ledger_from_env() is None
    explicit = ledger_from_env(str(tmp_path / "explicit"))
    assert explicit is not None
    assert explicit.path.name == LEDGER_FILENAME
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "from-env"))
    from_env = ledger_from_env()
    assert from_env is not None and from_env.directory.name == "from-env"
    # Explicit argument wins over the environment.
    assert ledger_from_env(str(tmp_path / "explicit")).directory.name == "explicit"


# ----------------------------------------------------------------------
# Concurrent forked writers: every manifest exactly once, no torn lines.
# ----------------------------------------------------------------------
def _fork_writer(directory, writer_id, appends):
    ledger = RunLedger(directory)
    for sequence in range(appends):
        ledger.append(make_manifest(
            target=f"writer-{writer_id}",
            seed=sequence,
            # Padding widens the write so an unserialised implementation
            # would actually tear under contention.
            phases={f"phase-{index}": float(index) for index in range(40)},
        ))


def test_concurrent_forked_writers_interleave_whole_lines(ledger):
    writers, appends = 8, 25
    context = multiprocessing.get_context("fork")
    processes = [
        context.Process(
            target=_fork_writer, args=(str(ledger.directory), writer, appends)
        )
        for writer in range(writers)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join()
        assert process.exitcode == 0

    result = ledger.read()
    assert result.skipped_lines == 0
    assert len(result) == writers * appends
    # Every (writer, sequence) pair appears exactly once.
    seen = {(manifest.target, manifest.seed) for manifest in result}
    assert seen == {
        (f"writer-{writer}", sequence)
        for writer in range(writers)
        for sequence in range(appends)
    }
    assert len({manifest.run_id for manifest in result}) == len(result)
    # No temp files, locks, or shards — just the one JSONL file.
    assert os.listdir(ledger.directory) == [LEDGER_FILENAME]


# ----------------------------------------------------------------------
# Diffing, rendering, summaries.
# ----------------------------------------------------------------------
def test_diff_manifests_reports_config_and_metric_deltas():
    a = make_manifest(wall_s=2.0, ips=1000.0, instructions=2000,
                      phases={"execute.classic": 1.0, "only-a": 0.1})
    b = dataclasses.replace(
        a, run_id=new_run_id(), backend="fast", wall_s=1.0, ips=2000.0,
        phases={"execute.classic": 0.4, "only-b": 0.2},
        fidelity={"score": 0.9, "metrics": 10, "mean_abs_error_pp": 8.0},
    )
    diff = diff_manifests(a, b)
    assert diff["a"] == a.run_id and diff["b"] == b.run_id
    assert set(diff["config"]) == {"backend"}
    assert diff["metrics"]["wall_s"]["delta"] == -1.0
    assert diff["metrics"]["wall_s"]["delta_fraction"] == -0.5
    assert diff["metrics"]["ips"]["delta_fraction"] == 1.0
    assert diff["metrics"]["fidelity.score"] == {"a": None, "b": 0.9}
    assert diff["metrics"]["fidelity.mean_abs_error_pp"] == {"a": None, "b": 8.0}
    # Drift inside the tolerance band leaves the score alone; the mean
    # error still shows it.
    c = dataclasses.replace(
        b, run_id=new_run_id(),
        fidelity={"score": 0.9, "metrics": 10, "mean_abs_error_pp": 8.25},
    )
    fidelity = diff_manifests(b, c)["metrics"]
    assert fidelity["fidelity.score"]["delta"] == 0.0
    assert fidelity["fidelity.mean_abs_error_pp"] == {
        "a": 8.0, "b": 8.25, "delta": 0.25,
    }
    # Unscored runs carry no fidelity rows.
    assert not any(key.startswith("fidelity") for key in
                   diff_manifests(a, a)["metrics"])
    assert diff["phases"]["execute.classic"]["delta"] == pytest.approx(-0.6)
    assert diff["phases"]["only-a"]["b"] is None
    assert diff["phases"]["only-b"]["a"] is None
    # Identical configs diff to an empty config block.
    assert diff_manifests(a, a)["config"] == {}


def test_serial_and_parallel_manifests_diff_on_jobs():
    from repro.telemetry import telemetry_session

    manifests = []
    for jobs in (1, 2):
        with telemetry_session() as telemetry:
            pass
        config = {"scale": 0.5, "backend": "classic", "policies": ["FLC"],
                  "model_fingerprint": "m", "jobs": jobs}
        manifests.append(collect_manifest(
            "experiment", "repro experiment fig3", "fig3", telemetry, 1.0,
            runner_config=config,
        ))
    serial, parallel = manifests
    assert (serial.jobs, parallel.jobs) == (1, 2)
    diff = diff_manifests(serial, parallel)
    assert diff["config"] == {"jobs": {"a": 1, "b": 2}}
    assert "jobs" in render_manifest(parallel)
    assert "jobs" in render_manifest_diff(diff)
    # A manifest written before the field existed still loads.
    payload = serial.to_json()
    del payload["jobs"]
    old = RunManifest.from_json(payload)
    assert old.jobs is None and old.extra == {}


def test_render_manifest_and_diff_are_printable():
    manifest = make_manifest(
        fidelity={"score": 0.8, "metrics": 5},
        cache_io={"hits": 3.0},
        extra={"future": 1},
    )
    text = render_manifest(manifest)
    assert manifest.run_id in text
    assert "fidelity" in text and "future" in text
    other = dataclasses.replace(manifest, run_id=new_run_id(), wall_s=9.0)
    diff_text = render_manifest_diff(diff_manifests(manifest, other))
    assert manifest.run_id in diff_text and other.run_id in diff_text
    assert "configuration: identical" in diff_text


def test_fidelity_summary_collapses_metrics():
    @dataclasses.dataclass
    class Metric:
        within: bool
        abs_error: float

    assert fidelity_summary([]) is None
    summary = fidelity_summary(
        [Metric(True, 1.0), Metric(True, 2.0), Metric(False, 6.0)]
    )
    assert summary["score"] == pytest.approx(2 / 3)
    assert summary["metrics"] == 3
    assert summary["mean_abs_error_pp"] == pytest.approx(3.0)


def test_read_result_container_defaults():
    empty = LedgerReadResult()
    assert list(empty) == [] and empty.skipped_lines == 0
