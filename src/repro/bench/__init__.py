"""Fidelity scoring: the reproduction's numbers against the paper's.

:mod:`repro.bench.paper_reference` encodes the values the paper reports
(Figures 3-5, Tables 4-5) and scores an experiment report against them.
``repro bench`` prints those scores as the fidelity report and records
one ``bench`` manifest in the run ledger, so ``repro runs diff`` shows
how fidelity moved between two runs.  See ``docs/observability.md``
("The fidelity report").
"""

from .paper_reference import (
    BOUNDS,
    REFERENCES,
    SCORED_EXPERIMENTS,
    FidelityMetric,
    ReferenceBound,
    ReferenceSeries,
    fidelity_metrics,
)

__all__ = [
    "BOUNDS",
    "FidelityMetric",
    "REFERENCES",
    "ReferenceBound",
    "ReferenceSeries",
    "SCORED_EXPERIMENTS",
    "fidelity_metrics",
]
