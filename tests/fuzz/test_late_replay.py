"""The broken leaf replay (state read after the load) must be caught.

`LateReplayState` differs from the real replay in one bisection: it
admits the load's own dynamic index, so every state query sees the
machine after the load instead of before it.  The committed
``reload-into-leaf`` corpus entry reloads a spilled copy back into the
register the copy was made from, after clobbering it — exactly the
shape where that difference turns a clobbered leaf into a "live" one.
"""

from pathlib import Path

import pytest

from repro.fuzz import check_spec, default_fuzz_model, load_entry
from repro.fuzz.corpus import corpus_paths
from repro.fuzz.faults import late_replay

from ..compiler.test_compile_identity import golden_program, load_golden, program_digest

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
ENTRY = "reload-into-leaf"


@pytest.fixture(scope="module")
def entry():
    (path,) = [p for p in corpus_paths(CORPUS_DIR) if p.stem.startswith(ENTRY + "-")]
    return load_entry(path)


def test_compile_identity_golden_fails_under_late_replay():
    name = f"corpus:{ENTRY}"
    golden = load_golden()[name]
    assert program_digest(*golden_program(name)) == golden
    with late_replay():
        assert program_digest(*golden_program(name)) != golden


def test_check_spec_catches_late_replay(entry):
    model = default_fuzz_model()
    assert check_spec(entry.spec, model=model).ok
    with late_replay():
        verdict = check_spec(entry.spec, model=model)
    assert verdict.is_counterexample
    assert {failure.kind for failure in verdict.failures} == {"equivalence"}


def test_late_replay_is_scoped():
    from repro.compiler import leaves
    from repro.fuzz.faults import LateReplayState

    original = leaves._ReplayState
    with late_replay():
        assert leaves._ReplayState is LateReplayState
    assert leaves._ReplayState is original
