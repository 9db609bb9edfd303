"""Suite runner caching and experiment registry."""

import pytest

from repro.harness import EXPERIMENTS, SuiteRunner, run_experiment


@pytest.fixture(scope="module")
def runner():
    return SuiteRunner(scale=0.25)


def test_result_is_cached(runner):
    first = runner.result("bfs")
    second = runner.result("bfs")
    assert first is second


def test_cache_keyed_on_scale():
    """Changing scale re-evaluates instead of serving the stale run."""
    runner = SuiteRunner(scale=0.25)
    small = runner.result("bfs")
    runner.scale = 0.5
    large = runner.result("bfs")
    assert large is not small
    # The small-scale entry is still cached alongside the large one.
    runner.scale = 0.25
    assert runner.result("bfs") is small
    small_stats = small["Compiler"].classic.stats
    large_stats = large["Compiler"].classic.stats
    assert small_stats.dynamic_instructions < large_stats.dynamic_instructions


def test_cache_keyed_on_model_fingerprint():
    """The cache keys the model by value, so results can never mix models.

    A value-equal replacement keeps serving the warm cache; a genuinely
    different model re-evaluates transparently — no manual invalidate.
    """
    from repro.energy import EnergyModel
    from repro.energy.tech import paper_energy_model

    runner = SuiteRunner(scale=0.25)
    first = runner.result("bfs")
    runner.model = paper_energy_model()  # value-equal -> same fingerprint
    assert runner.result("bfs") is first
    original = runner.model
    runner.model = EnergyModel(
        epi=original.epi.scaled_nonmem(2.0), config=original.config
    )
    swapped = runner.result("bfs")
    assert swapped is not first
    assert (
        swapped["Compiler"].classic.energy_nj
        != first["Compiler"].classic.energy_nj
    )
    # Both entries stay cached under their own fingerprints.
    runner.model = original
    assert runner.result("bfs") is first


def test_registry_covers_every_table_and_figure():
    expected = {"table1", "fig3", "fig4", "fig5", "table4", "table5",
                "fig6", "fig7", "fig8", "table6"}
    assert expected <= set(EXPERIMENTS)


def test_unknown_experiment_raises(runner):
    with pytest.raises(KeyError):
        run_experiment("fig99", runner)


def test_table1_needs_no_simulation(runner):
    report = run_experiment("table1", runner)
    assert "40nm" in report.text
    assert "5.75" in report.text


@pytest.mark.integration
def test_fig3_report_structure(suite_runner):
    report = run_experiment("fig3", suite_runner)
    assert "Compiler" in report.text
    matrix = report.data
    assert set(matrix.benchmarks()) == {
        "mcf", "sx", "cg", "is", "ca", "fs", "fe", "rt", "bp", "bfs", "sr"
    }


@pytest.mark.integration
def test_fig7_report_structure(suite_runner):
    report = run_experiment("fig7", suite_runner)
    assert "w/ nc" in report.text
