"""The run ledger end to end: ``--ledger-dir`` recording and the
``repro runs``/``repro cache`` command families, all through
``repro.cli.main``.
"""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.telemetry.ledger import RunLedger, RunManifest, new_run_id


@pytest.fixture
def ledger_dir(tmp_path):
    return str(tmp_path / "ledger")


def run_bfs(ledger_dir, extra=()):
    return main([
        "run", "bfs", "--policy", "FLC", "--scale", "0.25",
        "--ledger-dir", ledger_dir, *extra,
    ])


# ----------------------------------------------------------------------
# Recording.
# ----------------------------------------------------------------------
def test_run_with_ledger_dir_records_one_manifest(ledger_dir, capsys):
    assert run_bfs(ledger_dir) == 0
    assert "ledger: recorded run" in capsys.readouterr().err
    manifests = RunLedger(ledger_dir).read()
    assert len(manifests) == 1
    manifest = manifests[0]
    assert manifest.kind == "run"
    assert manifest.target == "bfs"
    assert manifest.command == "repro run bfs"
    assert manifest.scale == 0.25
    assert manifest.policies == ["FLC"]
    assert manifest.wall_s > 0
    assert manifest.instructions > 0
    assert manifest.ips > 0
    assert manifest.phases  # span-derived phase timings came along
    assert manifest.python  # provenance stamped


def test_no_ledger_flag_records_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("REPRO_LEDGER_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    assert main(["run", "bfs", "--policy", "FLC", "--scale", "0.25"]) == 0
    assert "ledger" not in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # opt-in: no stray files


def test_ledger_env_var_enables_recording(ledger_dir, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_LEDGER_DIR", ledger_dir)
    assert main(["run", "bfs", "--policy", "FLC", "--scale", "0.25"]) == 0
    assert len(RunLedger(ledger_dir).read()) == 1


def test_experiment_records_manifest(ledger_dir, capsys):
    assert main([
        "experiment", "table1", "--ledger-dir", ledger_dir,
    ]) == 0
    manifest = RunLedger(ledger_dir).read()[0]
    assert manifest.kind == "experiment"
    assert manifest.target == "table1"


def test_repeat_runs_append(ledger_dir, capsys):
    assert run_bfs(ledger_dir) == 0
    assert run_bfs(ledger_dir) == 0
    manifests = RunLedger(ledger_dir).read()
    assert len(manifests) == 2
    assert manifests[0].run_id != manifests[1].run_id


# ----------------------------------------------------------------------
# runs list / show / diff.
# ----------------------------------------------------------------------
def test_runs_list_table_and_json(ledger_dir, capsys):
    assert run_bfs(ledger_dir) == 0
    capsys.readouterr()
    assert main(["runs", "list", "--ledger-dir", ledger_dir]) == 0
    out = capsys.readouterr().out
    assert "bfs" in out and "run id" in out
    assert main([
        "runs", "list", "--ledger-dir", ledger_dir, "--format", "json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 1 and payload[0]["target"] == "bfs"
    # Filters that match nothing produce an empty result, not an error.
    assert main([
        "runs", "list", "--ledger-dir", ledger_dir, "--target", "mcf",
    ]) == 0
    assert "no matching runs" in capsys.readouterr().out


def test_runs_show_by_prefix(ledger_dir, capsys):
    assert run_bfs(ledger_dir) == 0
    run_id = RunLedger(ledger_dir).read()[0].run_id
    capsys.readouterr()
    assert main([
        "runs", "show", run_id[:-4], "--ledger-dir", ledger_dir,
    ]) == 0
    out = capsys.readouterr().out
    assert run_id in out and "wall_s" in out
    assert main([
        "runs", "show", "zzz-no-such", "--ledger-dir", ledger_dir,
    ]) == 1
    assert "no ledger run matches" in capsys.readouterr().err


def test_runs_diff_two_runs(ledger_dir, capsys):
    assert run_bfs(ledger_dir) == 0
    assert run_bfs(ledger_dir) == 0
    first, second = (m.run_id for m in RunLedger(ledger_dir).read())
    capsys.readouterr()
    assert main([
        "runs", "diff", first, second, "--ledger-dir", ledger_dir,
        "--format", "json",
    ]) == 0
    diff = json.loads(capsys.readouterr().out)
    assert diff["a"] == first and diff["b"] == second
    assert diff["config"] == {}  # identical configuration
    assert "wall_s" in diff["metrics"]


def test_runs_commands_without_ledger_exit_2(capsys, monkeypatch):
    monkeypatch.delenv("REPRO_LEDGER_DIR", raising=False)
    assert main(["runs", "list"]) == 2
    assert "no run ledger configured" in capsys.readouterr().err
    assert main(["runs", "diff", "a", "b"]) == 2


# ----------------------------------------------------------------------
# cache stats.
# ----------------------------------------------------------------------
def test_cache_stats_text_and_json(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main([
        "run", "bfs", "--policy", "FLC", "--scale", "0.25",
        "--cache-dir", cache_dir,
    ]) == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "entries      1" in out and "<1m" in out
    assert main([
        "cache", "stats", "--cache-dir", cache_dir, "--format", "json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["entries"] == 1
    assert payload["total_bytes"] > 0
    assert sum(payload["age_histogram"].values()) == 1


def test_cache_stats_without_cache_exits_2(capsys, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert main(["cache", "stats"]) == 2
    assert "no result cache configured" in capsys.readouterr().err


def test_stats_json_carries_cache_io_and_pool_sections(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    args = [
        "stats", "bfs", "--policy", "FLC", "--scale", "0.25",
        "--cache-dir", cache_dir, "--format", "json",
    ]
    assert main(args) == 0  # cold: one store
    capsys.readouterr()
    assert main(args) == 0  # warm: one disk hit
    payload = json.loads(capsys.readouterr().out)
    assert payload["cache_io"].get("hits") == 1
    assert "pool" in payload


def test_run_records_even_with_metrics_session(ledger_dir, capsys):
    # --metrics opens the ambient session; recording must reuse it
    # instead of opening a second one.
    assert run_bfs(ledger_dir, extra=("--metrics",)) == 0
    manifests = RunLedger(ledger_dir).read()
    assert len(manifests) == 1 and manifests[0].instructions > 0


def test_diff_run_ids_helper():
    # new_run_id stays unique across rapid calls (used by diff tests).
    assert new_run_id() != new_run_id()
    manifest = RunManifest.new(kind="run", command="c", target="t")
    clone = dataclasses.replace(manifest, run_id=new_run_id())
    assert clone.run_id != manifest.run_id
