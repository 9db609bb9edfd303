"""The ``repro fuzz`` subcommand: flags, determinism, exit codes."""

import json

import pytest

from repro.cli import main
from repro.fuzz import CorpusEntry, save_entry
from repro.fuzz.corpus import EXPECT_CLASSIC_FAULT
from repro.fuzz.generator import random_spec

pytestmark = pytest.mark.integration


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fuzz_clean_campaign_exits_zero(capsys):
    code, out, _ = run_cli(
        capsys, "fuzz", "--seed", "0", "--iterations", "10"
    )
    assert code == 0
    assert "10 programs checked" in out
    assert "no equivalence violations found" in out


def test_fuzz_json_output_is_deterministic(capsys):
    argv = ("fuzz", "--seed", "0", "--iterations", "10", "--format", "json")
    code_a, out_a, _ = run_cli(capsys, *argv)
    code_b, out_b, _ = run_cli(capsys, *argv)
    assert code_a == code_b == 0
    first, second = json.loads(out_a), json.loads(out_b)
    first.pop("elapsed_s"), second.pop("elapsed_s")
    assert first == second
    assert first["programs"] == 10
    assert first["counterexamples"] == []


def test_fuzz_policy_filter_and_validation(capsys):
    code, out, _ = run_cli(
        capsys,
        "fuzz", "--seed", "0", "--iterations", "5", "--policies", "FLC,LLC",
    )
    assert code == 0
    assert "FLC, LLC" in out

    code, _, err = run_cli(
        capsys, "fuzz", "--iterations", "1", "--policies", "Psychic"
    )
    assert code == 2
    assert "unknown policies" in err


def test_fuzz_replay_requires_corpus_dir(capsys):
    code, _, err = run_cli(capsys, "fuzz", "--replay")
    assert code == 2
    assert "--corpus-dir" in err


def test_fuzz_replay_corpus(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    save_entry(
        corpus_dir,
        CorpusEntry(spec=random_spec(4, name="replayable"), source="test"),
    )
    # A classic fault is this entry's healthy outcome.
    save_entry(
        corpus_dir,
        CorpusEntry(
            spec=random_spec(4, name="faulting"),
            source="test",
            max_instructions=10,
            expect=EXPECT_CLASSIC_FAULT,
        ),
    )
    code, out, _ = run_cli(
        capsys, "fuzz", "--replay", "--corpus-dir", str(corpus_dir)
    )
    assert code == 0
    assert "replayed 2 corpus entries, 0 failing" in out
    (faulting,) = [line for line in out.splitlines() if " faulting: " in line]
    assert faulting.startswith("ok   faulting: invalid: classic: "), faulting

    code, out, _ = run_cli(
        capsys,
        "fuzz", "--replay", "--corpus-dir", str(corpus_dir),
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"entries": 2, "failures": []}


@pytest.mark.parametrize("payload", ([], {"format": 1}, {"format": 1, "spec": {"format": 1}}))
def test_fuzz_replay_reports_a_malformed_entry(tmp_path, capsys, payload):
    (tmp_path / "wrong.json").write_text(json.dumps(payload), encoding="utf-8")
    code, _, err = run_cli(capsys, "fuzz", "--replay", "--corpus-dir", str(tmp_path))
    assert code == 2
    assert "malformed corpus entry" in err and "wrong.json" in err


def test_fuzz_banks_counterexamples_nowhere_on_clean_run(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    code, _, _ = run_cli(
        capsys,
        "fuzz", "--seed", "0", "--iterations", "5",
        "--corpus-dir", str(corpus_dir),
    )
    assert code == 0
    assert not list(corpus_dir.glob("*.json")) if corpus_dir.exists() else True
