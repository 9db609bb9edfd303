"""Ablation: the store-elision opportunity (paper section 1).

"For each load replaced with an RSlice, the corresponding store can
become redundant if no other load depends on it."  This experiment
quantifies, per responsive benchmark, the fraction of dynamic stores
whose every consumer is a swapped load — the upper bound on footprint
and store-energy relief amnesic execution unlocks.
"""

from repro.compiler.deadstore import analysis_for_compilation
from repro.workloads.suite import RESPONSIVE

from conftest import SHARED_RUNNER, record_report


def measure():
    rows = []
    for bench in RESPONSIVE:
        compilation = SHARED_RUNNER.result(bench)["Compiler"].compilation
        analysis = analysis_for_compilation(compilation)
        rows.append(
            (bench, analysis.elidable_fraction,
             analysis.elidable_dynamic_stores, analysis.total_dynamic_stores)
        )
    return rows


def test_deadstore_opportunity(benchmark):
    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = ["dead-store opportunity: elidable%  (elidable/total dynamic stores)"]
    for bench, fraction, elidable, total in rows:
        lines.append(f"  {bench:4s} {100 * fraction:8.1f}%  ({elidable}/{total})")
    record_report("ablation_deadstore", "\n".join(lines))

    by_bench = {row[0]: row[1] for row in rows}
    # Phase-constant regions are written once per refill and consumed
    # only by swapped loads: big elision opportunity on the memory-bound
    # benchmarks, tiny on the flag-churning bfs.
    assert by_bench["is"] > 0.3
    assert by_bench["mcf"] > 0.3
    for bench, fraction, *_ in rows:
        assert 0.0 <= fraction <= 1.0, bench
