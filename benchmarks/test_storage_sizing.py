"""Reproduce the section 3.4 / 5.4 storage-complexity analysis.

The paper sizes the amnesic structures from the observed slices: "a Hist
design of no more than 600 entries can accommodate such demand" and
"less than 50 entries for SFile or IBuff can cover most of the RSlices".
"""

from repro.workloads.suite import RESPONSIVE

from conftest import SHARED_RUNNER, record_report


def measure():
    rows = []
    for bench in RESPONSIVE:
        comparison = SHARED_RUNNER.result(bench)["Compiler"]
        cpu = comparison.amnesic.cpu
        max_sreg = max(
            (info.sreg_demand for info in comparison.compilation.binary.slices.values()),
            default=0,
        )
        rows.append(
            (bench, cpu.hist.stats.high_water, max_sreg,
             cpu.ibuff.stats.high_water, cpu.sfile.stats.high_water)
        )
    return rows


def test_storage_sizing(benchmark):
    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = ["storage sizing (per benchmark): hist_hw  sreg_demand  ibuff_hw  sfile_hw"]
    for bench, hist_hw, sreg, ibuff_hw, sfile_hw in rows:
        lines.append(f"  {bench:4s} {hist_hw:8d} {sreg:11d} {ibuff_hw:9d} {sfile_hw:9d}")
    record_report("storage_sizing", "\n".join(lines))

    for bench, hist_hw, sreg, ibuff_hw, sfile_hw in rows:
        # Paper section 5.4: Hist demand stays under 600 entries.
        assert hist_hw <= 600, bench
        # SFile/IBuff demand per slice stays under 50 entries.
        assert sreg <= 50, bench
        assert sfile_hw <= 50, bench
        assert ibuff_hw <= 64, bench
