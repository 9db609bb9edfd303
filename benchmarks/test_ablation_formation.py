"""Ablation: the paper's greedy slice growth vs the minimum-cost cut.

The optimal cut produces much shorter slices (a Hist read beats
re-executing more than ~2 instructions) at equal-or-better energy; the
greedy growth is what reproduces the paper's Figure 6 length spread.
"""

import dataclasses

from repro.compiler import PassOptions, compile_amnesic
from repro.compiler.formation import FORMATION_GREEDY, FORMATION_OPTIMAL
from repro.core.execution import run_amnesic, run_classic
from repro.workloads.suite import get

from conftest import SHARED_RUNNER, record_report


def measure(bench="sx"):
    model = SHARED_RUNNER.model
    program = get(bench).instantiate(SHARED_RUNNER.scale)
    out = {}
    for mode in (FORMATION_GREEDY, FORMATION_OPTIMAL):
        compilation = compile_amnesic(
            program, model, options=PassOptions(formation=mode)
        )
        classic = run_classic(program, model)
        amnesic = run_amnesic(compilation, "Compiler", model)
        lengths = [rs.length for rs in compilation.rslices]
        out[mode] = {
            "edp_gain": 100 * (classic.edp - amnesic.edp) / classic.edp,
            "mean_length": sum(lengths) / max(len(lengths), 1),
        }
    return out


def test_formation_mode_tradeoff(benchmark):
    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    record_report(
        "ablation_formation",
        "formation ablation (sx): "
        + "  ".join(
            f"{mode}: edp={r['edp_gain']:.2f}% mean_len={r['mean_length']:.1f}"
            for mode, r in results.items()
        ),
    )
    greedy = results[FORMATION_GREEDY]
    optimal = results[FORMATION_OPTIMAL]
    assert optimal["mean_length"] <= greedy["mean_length"]
    # The optimal cut must not lose EDP against greedy growth.
    assert optimal["edp_gain"] >= greedy["edp_gain"] - 1.0
