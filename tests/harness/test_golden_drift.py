"""Golden-drift guard: experiments must re-render byte-for-byte.

The committed ``results/*.txt`` files are the tables and figures the
benchmark harness last regenerated; the simulator is deterministic, so
any rendering drift means behaviour changed.  Every golden here shares
one responsive-suite evaluation through the session-scoped
``suite_runner`` fixture (``conftest.py``), as do the report-structure
tests in ``test_runner.py``.
"""

import pathlib

import pytest

from repro.harness.experiments import run_experiment

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent.parent / "results"

#: Goldens cheap enough for the tier-1 suite: everything rendered from
#: the shared responsive-suite evaluation.  (table6 bisects per-slice
#: break-evens and the ablations re-evaluate under perturbed models —
#: those regenerate only in benchmark sessions.)
GOLDEN_EXPERIMENTS = (
    "table1", "fig3", "fig4", "fig5", "table4", "table5",
    "fig6", "fig7", "fig8",
)


@pytest.mark.parametrize("experiment_id", GOLDEN_EXPERIMENTS)
def test_experiment_matches_committed_golden(experiment_id, suite_runner):
    golden = RESULTS_DIR / f"{experiment_id}.txt"
    assert golden.exists(), (
        f"missing golden {golden}; regenerate with "
        f"`python -m pytest benchmarks -q`"
    )
    report = run_experiment(experiment_id, suite_runner)
    assert report.text + "\n" == golden.read_text(), (
        f"{experiment_id} drifted from {golden}; if the change is "
        f"intended, regenerate the goldens with the benchmark harness"
    )
