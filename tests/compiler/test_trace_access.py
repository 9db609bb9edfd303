"""Profile and compile read the columnar trace, never a record per instruction."""

import pytest

from repro.compiler import compile_amnesic, leaves
from repro.compiler.deadstore import analysis_for_compilation
from repro.energy import EPITable, EnergyModel
from repro.staticcheck.rules import verify_compilation
from repro.trace import dependence, profile_program, summarise_trace
from repro.trace.dependence import DependenceTracker

from ..conftest import build_spill_kernel, tiny_config
from .test_leaves import formed_candidates


def make_model():
    return EnergyModel(epi=EPITable.default(), config=tiny_config())


def test_profiling_builds_no_records(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the profiling run built a DynRecord")

    monkeypatch.setattr(dependence, "DynRecord", forbidden)
    profile = profile_program(build_spill_kernel(iterations=10, chain=3, gap=4), make_model())
    assert len(profile.dependence) == profile.dynamic_instructions
    assert profile.loads.observed_loads()


def test_pipeline_never_walks_the_record_view(monkeypatch):
    def forbidden(self):
        raise AssertionError("DependenceTracker.records was used")

    monkeypatch.setattr(DependenceTracker, "records", property(forbidden))
    program = build_spill_kernel(iterations=10, chain=3, gap=4)
    model = make_model()
    compilation = compile_amnesic(program, model)
    assert compilation.rslices
    analysis_for_compilation(compilation)
    summarise_trace(compilation.profile.dependence)
    assert not verify_compilation("spill", program, compilation, model).errors


@pytest.mark.parametrize("liveness", [True, False])
def test_replay_visits_only_candidate_load_instances(monkeypatch, liveness):
    program = build_spill_kernel(iterations=10, chain=3, gap=4)
    candidates, tracker, facts = formed_candidates(program)
    visited = []
    original = leaves._ReplayState.visit

    def spy(self, load_pc):
        for now in original(self, load_pc):
            visited.append((load_pc, self.now))
            yield now

    monkeypatch.setattr(leaves._ReplayState, "visit", spy)
    if liveness:
        leaves.collect_liveness(candidates, tracker)
    else:
        leaves.classify_and_validate(candidates, tracker, facts)
    expected = [
        (pc, index)
        for pc in candidates
        for index in tracker.pc_info(pc).instances
    ]
    assert visited == expected
    assert len(visited) * 10 < len(tracker)
