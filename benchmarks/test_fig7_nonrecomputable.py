"""Reproduce paper Figure 7: slices with non-recomputable leaf inputs."""

from repro.harness import run_experiment
from repro.workloads.suite import get

from conftest import SHARED_RUNNER, record_report


def test_fig7_nonrecomputable(benchmark):
    report = benchmark.pedantic(
        lambda: run_experiment("fig7", SHARED_RUNNER), rounds=1, iterations=1
    )
    record_report("fig7", report.text)
    shares = {share.benchmark: share for share in report.data}

    # "With the exception of is and bfs, such RSlices represent the vast
    # majority" (section 5.4).
    for name, share in shares.items():
        expected_majority = get(name).calibration.nonrecomputable_majority
        assert (share.with_nc_percent > 50) == expected_majority, name
    assert shares["is"].with_nc_percent < 50
    assert shares["bfs"].with_nc_percent < 50
