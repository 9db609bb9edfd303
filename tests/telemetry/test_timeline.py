"""Microarchitectural timeline sampling.

Covers the TimelineTrack unit contract (window boundaries, level vs
delta series, partial final window, sink emission) and the CPU
integration: a run under ``telemetry_session(timeline_window=N)``
attaches one track per run, samples the amnesic structures, and leaves
no track attached when telemetry is off.
"""

import pytest

from repro.compiler import compile_amnesic
from repro.core import AmnesicCPU, make_policy
from repro.machine import CPU
from repro.telemetry.runtime import get_telemetry, telemetry_session
from repro.telemetry.sink import ListSink
from repro.telemetry.timeline import (
    TimelineTrack,
    is_level_series,
)
from tests.conftest import build_spill_kernel


# ----------------------------------------------------------------------
# Unit behaviour against a synthetic observe() hook.
# ----------------------------------------------------------------------
class FakeStructure:
    def __init__(self):
        self.occupancy = 0
        self.hits = 0

    def observe(self):
        return {"occupancy": self.occupancy, "hits": self.hits}


def test_is_level_series_classifies_by_last_segment():
    assert is_level_series("sfile.occupancy")
    assert is_level_series("hist.high_water")
    assert is_level_series("renamer.live_mappings")
    assert not is_level_series("sfile.reads")
    assert not is_level_series("l1.misses")
    assert not is_level_series("occupancy.total")  # suffix, not prefix


def test_track_captures_at_window_boundaries_only():
    structure = FakeStructure()
    track = TimelineTrack("t", structure.observe, window=10)
    for retired in range(1, 10):
        structure.hits += 1
        track.tick(retired)
    assert track.samples == []
    structure.occupancy = 7
    structure.hits += 1
    track.tick(10)
    assert len(track.samples) == 1
    sample = track.samples[0]
    assert (sample.start_instr, sample.end_instr) == (0, 10)
    assert sample.levels == {"occupancy": 7}
    assert sample.deltas == {"hits": 10}
    assert sample.instructions == 10


def test_track_deltas_are_per_window_not_cumulative():
    structure = FakeStructure()
    track = TimelineTrack("t", structure.observe, window=5)
    structure.hits = 3
    track.tick(5)
    structure.hits = 10
    track.tick(10)
    assert track.delta_series("hits") == [3, 7]
    assert sum(track.delta_series("hits")) == structure.hits


def test_close_records_partial_final_window_once():
    structure = FakeStructure()
    track = TimelineTrack("t", structure.observe, window=100)
    structure.hits = 4
    track.close(42)
    track.close(42)  # idempotent
    assert len(track.samples) == 1
    assert track.samples[0].end_instr == 42
    assert track.samples[0].deltas["hits"] == 4


def test_close_with_no_new_instructions_records_nothing():
    structure = FakeStructure()
    track = TimelineTrack("t", structure.observe, window=10)
    track.tick(10)
    track.close(10)
    assert len(track.samples) == 1


def test_track_emits_timeline_events_to_sink():
    structure = FakeStructure()
    sink = ListSink()
    track = TimelineTrack(
        "amnesic#0", structure.observe, window=5, sink=sink,
        attrs={"policy": "FLC"},
    )
    structure.occupancy = 2
    track.tick(5)
    [event] = sink.events
    assert event["type"] == "timeline"
    assert event["track"] == "amnesic#0"
    assert event["levels"] == {"occupancy": 2}
    assert event["attrs"] == {"policy": "FLC"}
    assert (event["start_instr"], event["end_instr"]) == (0, 5)


def test_track_rejects_nonpositive_window():
    with pytest.raises(ValueError):
        TimelineTrack("t", FakeStructure().observe, window=0)


# ----------------------------------------------------------------------
# CPU integration.
# ----------------------------------------------------------------------
@pytest.fixture
def program():
    return build_spill_kernel(iterations=12, chain=3, gap=6)


@pytest.fixture
def compiled(program, model):
    return compile_amnesic(program, model)


def test_cpu_run_attaches_timeline_per_run(program, compiled, model):
    with telemetry_session(timeline_window=25) as session:
        classic = CPU(program, model)
        classic.run()
        amnesic = AmnesicCPU(compiled.binary, model, make_policy("Compiler"))
        amnesic.run()
    labels = [track.label for track in session.timelines]
    assert labels == ["classic#0", "amnesic#1"]
    for cpu, track in zip((classic, amnesic), session.timelines):
        assert track.samples, "run recorded no windows"
        assert track.samples[-1].end_instr == cpu.stats.dynamic_instructions


def test_amnesic_timeline_samples_structures(compiled, model):
    with telemetry_session(timeline_window=20) as session:
        AmnesicCPU(compiled.binary, model, make_policy("Compiler")).run()
    [track] = session.timelines
    names = track.series_names()
    for expected in (
        "sfile.occupancy", "hist.occupancy", "ibuff.occupancy",
        "l1.occupancy", "l2.occupancy", "instructions", "energy_nj",
    ):
        assert expected in names, f"missing series {expected}"
    assert track.attrs["policy"] == "Compiler"
    # The delta series telescope back to the run totals.
    assert sum(track.delta_series("instructions")) == (
        track.samples[-1].end_instr
    )


def test_timeline_instruction_deltas_partition_the_run(program, model):
    with telemetry_session(timeline_window=16) as session:
        cpu = CPU(program, model)
        cpu.run()
    [track] = session.timelines
    boundaries = [sample.end_instr for sample in track.samples]
    assert boundaries == sorted(boundaries)
    assert boundaries[-1] == cpu.stats.dynamic_instructions
    assert all(sample.instructions > 0 for sample in track.samples)


def test_no_timeline_attached_when_telemetry_off(program, model):
    cpu = CPU(program, model)
    cpu.run()
    assert cpu._timeline is None
    assert get_telemetry().timelines == []


def test_no_timeline_without_window_configured(program, model):
    with telemetry_session() as session:
        CPU(program, model).run()
    assert session.timelines == []


def test_observe_hooks_are_flat_numeric_snapshots(compiled, model):
    amnesic = AmnesicCPU(compiled.binary, model, make_policy("Compiler"))
    amnesic.run()
    snapshot = amnesic.observe()
    assert snapshot["instructions"] == amnesic.stats.dynamic_instructions
    for name, value in snapshot.items():
        assert isinstance(name, str)
        assert isinstance(value, (int, float)), f"{name} not numeric"
    for prefix in ("sfile.", "hist.", "ibuff.", "l1.", "l2.", "rcmp."):
        assert any(name.startswith(prefix) for name in snapshot), prefix
