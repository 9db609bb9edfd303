"""Gain matrix aggregation."""

import pytest

from repro.analysis import GainMatrix, METRIC_EDP, METRIC_ENERGY, METRIC_TIME
from repro.core import evaluate_policies
from repro.energy import EPITable, EnergyModel

from ..conftest import build_spill_kernel, tiny_config


@pytest.fixture(scope="module")
def matrix():
    model = EnergyModel(epi=EPITable.default(), config=tiny_config())
    results = {
        "k1": evaluate_policies(
            build_spill_kernel(iterations=10, chain=3, gap=6, name="k1"),
            model=model,
        ),
        "k2": evaluate_policies(
            build_spill_kernel(iterations=8, chain=5, gap=4, name="k2"),
            model=model,
        ),
    }
    return GainMatrix(results)


def test_gain_accessors_consistent(matrix):
    for metric in (METRIC_EDP, METRIC_ENERGY, METRIC_TIME):
        row = matrix.row("k1", metric)
        assert len(row) == len(matrix.policies)
        assert row[matrix.policies.index("FLC")] == matrix.gain("k1", "FLC", metric)


def test_mean_and_max(matrix):
    gains = [matrix.gain(b, "Compiler") for b in matrix.benchmarks()]
    assert matrix.mean_gain("Compiler") == pytest.approx(sum(gains) / len(gains))
    assert matrix.max_gain("Compiler") == max(gains)


def test_render_contains_benchmarks(matrix):
    text = matrix.render()
    assert "k1" in text and "k2" in text and "Oracle" in text
