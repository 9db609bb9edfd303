"""``repro bench`` (the fidelity report) plus the ``--format json``
scripting paths."""

import dataclasses
import json

from repro import cli
from repro.bench.paper_reference import fidelity_metrics
from repro.cli import main
from repro.harness.experiments import run_experiment
from repro.telemetry.ledger import RunLedger, fidelity_summary


def test_bench_json_rows_are_the_reports_fidelity_metrics(
    tmp_path, capsys, monkeypatch
):
    reports = []

    def recording_run_experiment(experiment_id, runner):
        report = run_experiment(experiment_id, runner)
        reports.append(report)
        return report

    monkeypatch.setattr(cli, "run_experiment", recording_run_experiment)
    ledger_dir = str(tmp_path / "ledger")
    # The numbers are backend-independent; fast-batched and two workers
    # keep the eleven-kernel evaluation near three seconds.
    args = [
        "bench", "--experiments", "fig4", "--scale", "0.01",
        "--backend", "fast-batched", "--jobs", "2",
        "--cache-dir", str(tmp_path / "cache"),
    ]
    assert main([*args, "--format", "json", "--ledger-dir", ledger_dir]) == 0
    payload = json.loads(capsys.readouterr().out)
    (report,) = reports
    metrics = fidelity_metrics(report)
    assert payload["experiments"] == ["fig4"]
    assert [row["benchmark"] for row in payload["metrics"]] == ["is", "mcf"]
    assert payload["metrics"] == [dataclasses.asdict(m) for m in metrics]
    (manifest,) = RunLedger(ledger_dir).read()
    assert manifest.kind == "bench" and manifest.target == "fig4"
    assert manifest.fidelity == payload["summary"] == fidelity_summary(metrics)
    # The text report renders the same scores, served from the cache.
    assert main(args) == 0
    text = capsys.readouterr().out
    assert "fidelity against the paper" in text
    assert f"score {payload['summary']['score']:.3f} over 2 metric(s)" in text


def test_bench_rejects_unknown_experiment(tmp_path, capsys, monkeypatch):
    def must_not_run(experiment_id, runner):
        raise AssertionError(f"{experiment_id} ran before validation")

    monkeypatch.setattr(cli, "run_experiment", must_not_run)
    ledger_dir = tmp_path / "ledger"
    for selection in ("nope", "table1", "fig4,nope"):
        assert main([
            "bench", "--experiments", selection, "--ledger-dir", str(ledger_dir),
        ]) == 2
        assert "not fidelity-scored" in capsys.readouterr().err
    assert not ledger_dir.exists()


def test_run_format_json(capsys):
    assert main(
        ["run", "bfs", "--policy", "Compiler", "--scale", "0.25",
         "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["benchmark"] == "bfs"
    gains = payload["policies"]["Compiler"]
    assert {"edp_gain_percent", "energy_gain_percent", "time_gain_percent",
            "fired", "skipped", "fallbacks"} <= set(gains)


def test_experiment_format_json(capsys):
    assert main(["experiment", "table1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["experiment_id"] == "table1"
    assert payload["data"]
    assert "40nm" in payload["text"]
