"""Evaluation harness: experiments, cached suite runner, parallel engine."""

from .cache import CACHE_FORMAT_VERSION, ResultCache, ResultKey
from .experiments import (
    EXPERIMENTS,
    ExperimentReport,
    report_payload,
    run_experiment,
)
from .parallel import (
    ParallelEvaluationError,
    ResultEnvelope,
    WorkUnit,
    default_jobs,
    evaluate_many,
    evaluate_unit,
    merge_envelope,
)
from .report import DEFAULT_EXPERIMENTS, build_report, write_report
from .runner import SuiteRunner

__all__ = [
    "CACHE_FORMAT_VERSION",
    "DEFAULT_EXPERIMENTS",
    "EXPERIMENTS",
    "ExperimentReport",
    "ParallelEvaluationError",
    "ResultCache",
    "ResultEnvelope",
    "ResultKey",
    "SuiteRunner",
    "WorkUnit",
    "build_report",
    "default_jobs",
    "evaluate_many",
    "evaluate_unit",
    "merge_envelope",
    "report_payload",
    "run_experiment",
    "write_report",
]
