"""Replay of the committed regression corpus (tests/corpus/*.json).

Every entry runs through the full differential oracle on every CI run,
with the fast-batched backend under test, so one replay checks amnesic
execution against classic semantics and the backend against classic
state.  If a pipeline change breaks one of these known-tricky shapes,
this is where it fails — immediately, not at the next nightly fuzz
campaign.
"""

from pathlib import Path

import pytest

from repro.core.policies import POLICY_NAMES
from repro.fuzz import (
    check_spec,
    default_fuzz_model,
    load_corpus,
    load_entry,
    materialize,
)
from repro.fuzz.corpus import corpus_paths
from repro.fuzz.oracle import DEFAULT_MAX_INSTRUCTIONS
from repro.fuzz.runner import entry_satisfied

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


def entry_ids():
    return [path.stem for path in corpus_paths(CORPUS_DIR)]


@pytest.fixture(scope="module")
def model():
    return default_fuzz_model()


def test_corpus_is_committed_and_populated():
    assert CORPUS_DIR.is_dir()
    assert len(corpus_paths(CORPUS_DIR)) >= 5


@pytest.mark.parametrize(
    "path", corpus_paths(CORPUS_DIR), ids=entry_ids()
)
def test_corpus_entry_replays_clean(path, model):
    entry = load_entry(path)
    verdict = check_spec(
        entry.spec,
        model=model,
        policies=entry.policies or POLICY_NAMES,
        max_instructions=entry.max_instructions or DEFAULT_MAX_INSTRUCTIONS,
        backend="fast-batched",
    )
    # ``expect="classic-fault"`` entries replay to an invalid verdict
    # (the classic run faults by design, and the backend must fault the
    # same way); everything else must be ok.
    assert entry_satisfied(entry, verdict), (
        f"{entry.name}: expected {entry.expect}, got {verdict.summary()}"
    )


def test_corpus_covers_the_tricky_shapes(model):
    """The satellite's named shapes are present and behave as described."""
    from repro.compiler.amnesic_pass import compile_amnesic

    by_name = {entry.spec.name: entry for entry in load_corpus(CORPUS_DIR)}
    for required in ("aliasing-store", "clobbered-leaf", "trivial-checkpoint"):
        assert required in by_name, f"corpus lost the {required} shape"

    def hist_leaves(entry):
        result = compile_amnesic(materialize(entry.spec), model)
        return {
            sid: info.hist_leaf_ids
            for sid, info in result.binary.slices.items()
        }

    # The clobbered-leaf and trivial-checkpoint slices depend on Hist
    # checkpoints; the aliasing-store slice recomputes from live state.
    assert any(leaves for leaves in hist_leaves(by_name["clobbered-leaf"]).values())
    assert any(
        leaves for leaves in hist_leaves(by_name["trivial-checkpoint"]).values()
    )
    aliasing = hist_leaves(by_name["aliasing-store"])
    assert aliasing and all(not leaves for leaves in aliasing.values())


def test_corpus_filenames_match_content_digests():
    for path in corpus_paths(CORPUS_DIR):
        entry = load_entry(path)
        assert path.name.endswith(f"{entry.spec.digest()}.json"), (
            f"{path.name} was edited without renaming: content digest is "
            f"{entry.spec.digest()}"
        )
