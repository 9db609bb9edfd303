"""Corpus persistence: atomic writes, deterministic naming, strict loads."""

import json

import pytest

from repro.errors import FuzzError
from repro.fuzz import CorpusEntry, load_corpus, load_entry, save_entry
from repro.fuzz.corpus import corpus_paths, entry_filename
from repro.fuzz.generator import random_spec


@pytest.fixture
def entry():
    return CorpusEntry(
        spec=random_spec(5, name="sample"),
        description="a sample entry",
        source="unit test",
        policies=("Compiler", "FLC"),
    )


def test_save_load_roundtrip(tmp_path, entry):
    path = save_entry(tmp_path, entry)
    assert path.name == entry_filename(entry)
    clone = load_entry(path)
    assert clone == entry


def test_save_leaves_no_temp_files(tmp_path, entry):
    save_entry(tmp_path, entry)
    save_entry(tmp_path, entry)  # overwrite is idempotent
    leftovers = [p.name for p in tmp_path.iterdir() if p.name.startswith(".tmp")]
    assert leftovers == []
    assert len(corpus_paths(tmp_path)) == 1


def test_load_corpus_is_sorted_and_complete(tmp_path):
    names = []
    for seed in (3, 1, 2):
        entry = CorpusEntry(spec=random_spec(seed, name=f"s{seed}"))
        save_entry(tmp_path, entry)
        names.append(entry_filename(entry))
    loaded = load_corpus(tmp_path)
    assert [entry_filename(e) for e in loaded] == sorted(names)


def test_missing_directory_is_an_empty_corpus(tmp_path):
    assert load_corpus(tmp_path / "never-created") == []


def test_malformed_entry_raises_instead_of_skipping(tmp_path, entry):
    path = save_entry(tmp_path, entry)
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(FuzzError):
        load_corpus(tmp_path)


#: Valid JSON of the wrong shape: a list, an entry without a spec, and
#: a spec without its fields.
WRONG_SHAPES = ([], {"format": 1}, {"format": 1, "spec": {"format": 1}})


@pytest.mark.parametrize("payload", WRONG_SHAPES, ids=("list", "no-spec", "bare-spec"))
def test_wrong_shaped_entry_raises_fuzz_error_naming_the_file(tmp_path, payload):
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(FuzzError, match="wrong.json"):
        load_entry(path)


def test_unknown_corpus_format_is_rejected(tmp_path, entry):
    path = save_entry(tmp_path, entry)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["format"] = 99
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(FuzzError):
        load_entry(path)


def test_hidden_and_partial_files_are_ignored_by_listing(tmp_path, entry):
    save_entry(tmp_path, entry)
    (tmp_path / ".tmp-abandoned.json").write_text("{", encoding="utf-8")
    assert len(corpus_paths(tmp_path)) == 1
