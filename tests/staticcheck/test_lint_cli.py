"""The `repro lint` command: sweeps, cross-check, exit codes."""

import json
import os
import shutil

import pytest

from repro.cli import main
from repro.fuzz.faults import stale_load_lru
from repro.staticcheck.lint import (
    AGREE,
    STATIC_PASS_DYNAMIC_FAIL,
    LintSettings,
    run_lint,
)

CORPUS_DIR = "tests/corpus"


def test_self_lint_is_clean(capsys):
    assert main(["lint", "--self"]) == 0
    out = capsys.readouterr().out
    assert "layering: ok" in out
    assert "0 error(s)" in out


def test_kernel_subset_lints_clean(capsys):
    assert main(["lint", "--benchmarks", "is", "--no-corpus"]) == 0
    out = capsys.readouterr().out
    assert "kernel is: ok" in out


def test_unknown_benchmark_is_a_usage_error(capsys):
    assert main(["lint", "--benchmarks", "nope", "--no-corpus"]) == 2
    assert "unknown benchmark" in capsys.readouterr().err


def test_missing_corpus_dir_is_a_usage_error(capsys):
    assert main(["lint", "--no-kernels", "--corpus-dir", "/no/such/dir"]) == 2
    assert "not found" in capsys.readouterr().err


def test_json_output_parses(capsys):
    assert main(
        ["lint", "--benchmarks", "is", "--no-corpus", "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["errors"] == 0
    names = [p["program"] for p in payload["programs"]]
    assert names == ["is"]
    assert payload["programs"][0]["kind"] == "kernel"
    assert "layering" in payload


def copy_entry(prefix, directory):
    """A one-entry corpus so corpus-facing paths stay fast."""
    source = next(
        name
        for name in sorted(os.listdir(CORPUS_DIR))
        if name.startswith(prefix)
    )
    shutil.copy(os.path.join(CORPUS_DIR, source), directory / source)
    return str(directory)


@pytest.fixture()
def small_corpus(tmp_path):
    return copy_entry("clobbered-leaf", tmp_path)


@pytest.mark.parametrize(
    "entry, compiled",
    [
        pytest.param("clobbered-leaf", True, id="clobbered-leaf"),
        # Expects a classic fault: region-only lint, judged by the fault.
        pytest.param("batch-budget-edge", False, id="batch-budget-edge"),
    ],
)
def test_corpus_cross_check_agrees(entry, compiled, tmp_path):
    settings = LintSettings(
        include_kernels=False,
        corpus_dir=copy_entry(entry, tmp_path),
        cross_check=True,
    )
    run = run_lint(settings)
    assert run.ok
    (result,) = run.results
    assert result.name == entry
    assert result.kind == "corpus"
    assert result.cross_check == AGREE
    assert (result.slice_count > 0) is compiled
    assert result.to_json()["cross_check"] == AGREE


def test_cross_check_runs_the_oracle_on_the_lint_backend():
    # The LD twin breaks only generated code, so the oracle sees it only
    # when the cross-check runs on the backend the lint was given.
    settings = LintSettings(
        include_kernels=False,
        corpus_dir=CORPUS_DIR,
        cross_check=True,
        backend="fast-batched",
    )
    with stale_load_lru():
        run = run_lint(settings)
    caught = [
        result.name
        for result in run.results
        if result.cross_check == STATIC_PASS_DYNAMIC_FAIL
    ]
    assert caught == [
        "aliasing-store", "clobbered-leaf", "gen-1", "gen-5",
        "hist-lru-order", "loop-carried",
    ]
    assert not run.ok


def test_corpus_cli_sweep(small_corpus, capsys):
    assert main(
        ["lint", "--no-kernels", "--corpus-dir", small_corpus, "--cross-check"]
    ) == 0
    out = capsys.readouterr().out
    assert "corpus clobbered-leaf: ok" in out
