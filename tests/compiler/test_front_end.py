"""The compiler front end: built once per profile and extraction setting.

Template extraction and liveness read only the profile and four
``PassOptions`` fields, so compiles of one profile share them through a
memo on the ``ProfileResult``.  Every compile that shares a front end
must equal a compile from a fresh profile, the memo must be keyed by
each of the four fields, and it never travels with a pickled profile.
"""

import pickle

import pytest

from repro.compiler.amnesic_pass import (
    FRONT_END_FIELDS,
    PassOptions,
    compile_amnesic,
    front_end,
)
from repro.core.execution import _oracle_options
from repro.energy import paper_energy_model
from repro.fuzz.faults import front_end_ignoring_max_height
from repro.trace.recorder import ProfileResult, profile_program
from repro.workloads.suite import get

from .test_compile_identity import compilation_payload

#: One value per front-end field, each away from its default.
VARIED = {"max_height": 2, "max_nodes": 4, "max_samples": 1, "min_instances": 30}


@pytest.fixture(scope="module")
def mcf():
    model = paper_energy_model()
    program = get("mcf").instantiate(0.25)
    fresh = {
        field: compilation_payload(
            compile_amnesic(program, model, options=PassOptions(**{field: value}))
        )
        for field, value in VARIED.items()
    }
    return model, program, fresh


def shared_compiles(model, program):
    """Default options, then each field varied alone, all off one profile."""
    profile = profile_program(program, model)
    base = compile_amnesic(program, model, profile=profile)
    varied = {
        field: compilation_payload(
            compile_amnesic(
                program, model, profile=profile, options=PassOptions(**{field: value})
            )
        )
        for field, value in VARIED.items()
    }
    return profile, compilation_payload(base), varied


def test_varied_options_equal_fresh_profiles(mcf):
    model, program, fresh = mcf
    assert set(VARIED) == set(FRONT_END_FIELDS)
    profile, base, shared = shared_compiles(model, program)
    assert shared == fresh
    # One front end per extraction setting, and the operand map they share.
    assert len(profile.memo) == 1 + len(VARIED) + 1
    assert "operands" in profile.memo
    # A memo that ignored the height cap would be visible on mcf.
    assert fresh["max_height"]["instructions"] != base["instructions"]


def test_varied_options_catch_front_end_ignoring_max_height(mcf):
    model, program, fresh = mcf
    with front_end_ignoring_max_height():
        _, _, shared = shared_compiles(model, program)
    assert shared["max_height"] != fresh["max_height"]
    assert shared_compiles(model, program)[2] == fresh


def test_compiles_share_one_front_end_and_leave_it_unchanged(mcf):
    model, program, _ = mcf
    profile = profile_program(program, model)
    probabilistic = compile_amnesic(program, model, profile=profile)
    front = front_end(program, profile, PassOptions())
    rejected = dict(front.rejected)
    oracle = compile_amnesic(
        program, model, profile=profile, options=_oracle_options(PassOptions())
    )
    assert front_end(program, profile, _oracle_options(PassOptions())) is front
    # Selection adds its own rejections to each compile's copy only.
    assert front.rejected == rejected
    assert probabilistic.rejected is not front.rejected
    assert oracle.rejected is not front.rejected


def test_profile_pickles_without_its_memo(mcf):
    model, program, _ = mcf
    profile = profile_program(program, model)
    compiled = compilation_payload(compile_amnesic(program, model, profile=profile))
    assert profile.memo
    clone = pickle.loads(pickle.dumps(profile))
    assert clone.memo == {}
    recompiled = compile_amnesic(program, model, profile=clone)
    assert compilation_payload(recompiled) == compiled
    # A profile pickled before the memo existed has no such state.
    state = profile.__getstate__()
    assert "memo" not in state
    old = ProfileResult.__new__(ProfileResult)
    old.__setstate__(state)
    assert old.memo == {}
