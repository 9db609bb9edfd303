"""Hot-loop profiler: per-opcode attribution and exact reconciliation.

The load-bearing property is that attribution deltas *telescope*: no
matter the sampling stride, summed instructions equal the runs'
``RunStats.dynamic_instructions`` and summed energy equals the energy
accounts.  ``repro profile`` prints that reconciliation, and the CLI
exits non-zero if it ever breaks.
"""

import pytest

from repro.compiler import compile_amnesic
from repro.core import AmnesicCPU, make_policy
from repro.errors import ExecutionLimitExceeded
from repro.machine import CPU
from repro.telemetry.profiler import (
    FINALIZE_KEY,
    TAIL_KEY,
    HotLoopProfiler,
    reconcile,
    render_profile,
)
from repro.telemetry.runtime import telemetry_session
from tests.conftest import build_spill_kernel


@pytest.fixture
def program():
    return build_spill_kernel(iterations=10, chain=3, gap=5)


def profiled_run(program, model, sample_every, compiled=None):
    profiler = HotLoopProfiler(sample_every=sample_every)
    with telemetry_session(profiler=profiler):
        classic = CPU(program, model)
        classic.run()
        cpus = [classic]
        if compiled is not None:
            amnesic = AmnesicCPU(
                compiled.binary, model, make_policy("Compiler")
            )
            amnesic.run()
            cpus.append(amnesic)
    return profiler, cpus


@pytest.mark.parametrize("stride", [1, 7, 64])
def test_totals_reconcile_at_any_stride(program, model, stride):
    compiled = compile_amnesic(program, model)
    profiler, cpus = profiled_run(program, model, stride, compiled)
    instructions = sum(cpu.stats.dynamic_instructions for cpu in cpus)
    energy = sum(cpu.account.total_energy_nj for cpu in cpus)
    result = reconcile(profiler, instructions, energy)
    assert result["reconciled"], result
    assert result["instructions_delta"] == 0
    assert profiler.runs == len(cpus)


def test_exact_mode_attributes_every_dispatch(program, model):
    profiler, [classic] = profiled_run(program, model, sample_every=1)
    totals = profiler.totals()
    # In exact mode every retired instruction is its own sample (the
    # finalize row adds samples but no instructions).
    dispatch_samples = sum(
        row.samples for row in profiler.rows() if row.opcode != FINALIZE_KEY
    )
    assert dispatch_samples == classic.stats.dynamic_instructions
    assert totals.instructions == classic.stats.dynamic_instructions
    assert profiler.exact


def test_finalize_energy_is_attributed_explicitly(program, model):
    profiler, [classic] = profiled_run(program, model, sample_every=1)
    rows = {row.opcode: row for row in profiler.rows()}
    # The spill kernel leaves dirty lines; write-back energy lands in
    # the synthetic finalize row, not smeared over the last opcode.
    if classic.account.total_energy_nj > sum(
        row.energy_nj for name, row in rows.items() if name != FINALIZE_KEY
    ):
        assert FINALIZE_KEY in rows
        assert rows[FINALIZE_KEY].instructions == 0


def test_partial_tail_gets_its_own_row(program, model):
    # Regression: the partial window left when the run ends between
    # samples used to be attributed to whatever opcode happened to
    # dispatch last, skewing per-opcode shares at large strides.  It now
    # lands in a dedicated synthetic row.
    stride = 7
    profiler, [classic] = profiled_run(program, model, sample_every=stride)
    remainder = classic.stats.dynamic_instructions % stride
    assert remainder != 0, "pick a stride that leaves a partial tail"
    rows = {row.opcode: row for row in profiler.rows()}
    assert TAIL_KEY in rows
    assert rows[TAIL_KEY].instructions == remainder
    # The tail row is exactly what keeps totals reconciling.
    result = reconcile(
        profiler,
        classic.stats.dynamic_instructions,
        classic.account.total_energy_nj,
    )
    assert result["reconciled"], result
    assert result["instructions_delta"] == 0


def test_whole_run_shorter_than_stride_is_all_tail(program, model):
    profiler, [classic] = profiled_run(program, model, sample_every=10**9)
    rows = {row.opcode: row for row in profiler.rows()}
    assert set(rows) <= {TAIL_KEY, FINALIZE_KEY}
    assert rows[TAIL_KEY].instructions == classic.stats.dynamic_instructions
    assert reconcile(
        profiler,
        classic.stats.dynamic_instructions,
        classic.account.total_energy_nj,
    )["reconciled"]


def test_profile_cli_reconciliation_exits_zero_with_partial_tail(capsys):
    # End-to-end: ``repro profile`` exits non-zero if reconciliation ever
    # breaks, so a clean exit here proves the tail row keeps the books.
    from repro.cli import main

    assert main(["profile", "bfs", "--scale", "0.25",
                 "--sample-every", "7"]) == 0
    out = capsys.readouterr().out
    assert "reconciliation vs RunStats: ok" in out


def test_rows_are_ranked_by_wall_clock(program, model):
    profiler, _ = profiled_run(program, model, sample_every=4)
    walls = [row.wall_s for row in profiler.rows()]
    assert walls == sorted(walls, reverse=True)


def test_by_opcode_folds_run_labels(program, model):
    compiled = compile_amnesic(program, model)
    profiler, _ = profiled_run(program, model, 4, compiled)
    folded = {row.opcode: row for row in profiler.by_opcode()}
    split = profiler.rows()
    for opcode, row in folded.items():
        assert row.run == "*"
        assert row.instructions == sum(
            r.instructions for r in split if r.opcode == opcode
        )
    assert profiler.totals().instructions == sum(
        row.instructions for row in folded.values()
    )


def test_reconcile_flags_mismatch(program, model):
    profiler, [classic] = profiled_run(program, model, sample_every=1)
    result = reconcile(
        profiler, classic.stats.dynamic_instructions + 5
    )
    assert not result["reconciled"]
    assert result["instructions_delta"] == -5


def test_reconcile_energy_tolerance_absorbs_float_noise(program, model):
    profiler, [classic] = profiled_run(program, model, sample_every=1)
    energy = classic.account.total_energy_nj
    result = reconcile(
        profiler,
        classic.stats.dynamic_instructions,
        energy * (1 + 1e-9),  # beneath the relative tolerance
    )
    assert result["reconciled"]


def test_render_profile_includes_reconciliation(program, model):
    profiler, [classic] = profiled_run(program, model, sample_every=8)
    reconciliation = reconcile(
        profiler,
        classic.stats.dynamic_instructions,
        classic.account.total_energy_nj,
    )
    text = render_profile(profiler, top=5, reconciliation=reconciliation)
    assert "hot-loop profile" in text
    assert "reconciliation vs RunStats: ok" in text
    assert "energy vs accounts" in text


def test_to_json_round_trips_rows(program, model):
    profiler, _ = profiled_run(program, model, sample_every=2)
    payload = profiler.to_json()
    assert payload["mode"] == "sampling"
    assert payload["sample_every"] == 2
    assert payload["runs"] == profiler.runs
    assert len(payload["rows"]) == len(profiler.rows())
    totals = payload["totals"]
    assert totals["instructions"] == profiler.totals().instructions


def test_profiler_rejects_bad_stride():
    with pytest.raises(ValueError):
        HotLoopProfiler(sample_every=0)


def test_no_profiler_when_telemetry_disabled(program, model):
    from repro.telemetry.runtime import get_telemetry

    assert get_telemetry().active_profiler() is None
    cpu = CPU(program, model)
    cpu.run()  # plain loop, nothing to assert beyond not crashing
    assert cpu.stats.dynamic_instructions > 0


@pytest.mark.parametrize("budget", [None, 10], ids=["halts", "faults"])
def test_the_sampling_dispatch_table_is_the_runs_alone(program, model, budget):
    # A profiled run swaps in its sampling table for itself only: the
    # CPU has its own handlers back however the run ends.
    cpu = CPU(program, model, max_instructions=budget or 5_000_000)
    own = cpu._dispatch
    with telemetry_session(profiler=HotLoopProfiler(sample_every=3)):
        try:
            cpu.run()
        except ExecutionLimitExceeded:
            assert budget
    assert cpu.halted == (budget is None)
    assert cpu._dispatch is own
