"""Ablation: global (paper) vs per-load PrLi estimation.

The paper derives PrLi from suite-wide per-level hit/miss statistics; a
per-load profile is sharper and prevents the sr-style misprediction
where always-firing recomputation degrades EDP.
"""

from repro.compiler import PassOptions, compile_amnesic
from repro.compiler.cost import ESTIMATION_GLOBAL, ESTIMATION_PER_LOAD
from repro.core.execution import run_amnesic, run_classic
from repro.workloads.suite import get

from conftest import SHARED_RUNNER, record_report


def measure(bench="sr"):
    model = SHARED_RUNNER.model
    program = get(bench).instantiate(SHARED_RUNNER.scale)
    classic = run_classic(program, model)
    out = {}
    for mode in (ESTIMATION_GLOBAL, ESTIMATION_PER_LOAD):
        compilation = compile_amnesic(
            program, model, options=PassOptions(estimation=mode)
        )
        amnesic = run_amnesic(compilation, "Compiler", model)
        out[mode] = {
            "edp_gain": 100 * (classic.edp - amnesic.edp) / classic.edp,
            "slices": len(compilation.rslices),
        }
    return out


def test_estimation_mode(benchmark):
    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    record_report(
        "ablation_estimation",
        "estimation ablation (sr): "
        + "  ".join(
            f"{mode}: edp={r['edp_gain']:.2f}% slices={r['slices']}"
            for mode, r in results.items()
        ),
    )
    # Global estimation swaps the hot loads too (the sr blind spot);
    # per-load estimation refuses them and cannot do worse.
    assert results[ESTIMATION_GLOBAL]["slices"] >= results[ESTIMATION_PER_LOAD]["slices"]
    assert (
        results[ESTIMATION_PER_LOAD]["edp_gain"]
        >= results[ESTIMATION_GLOBAL]["edp_gain"] - 0.5
    )
