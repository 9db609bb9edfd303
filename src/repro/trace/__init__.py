"""Tracing and profiling: dependence graphs, PrLi profiles, value locality."""

from .dependence import SRC_IMM, SRC_REG, DependenceTracker, DynRecord
from .locality import DEFAULT_HISTORY_DEPTH, ValueLocalityTracker
from .io import dump_trace, load_trace
from .profile import LoadProfiler
from .recorder import ProfileResult, profile_program
from .summary import (
    COLD_BUCKET,
    DISTANCE_BUCKETS,
    ReuseProfile,
    TraceSummary,
    reuse_profile,
    summarise_trace,
)

__all__ = [
    "DEFAULT_HISTORY_DEPTH",
    "DependenceTracker",
    "DynRecord",
    "LoadProfiler",
    "ProfileResult",
    "SRC_IMM",
    "SRC_REG",
    "COLD_BUCKET",
    "DISTANCE_BUCKETS",
    "ReuseProfile",
    "TraceSummary",
    "ValueLocalityTracker",
    "dump_trace",
    "load_trace",
    "profile_program",
    "reuse_profile",
    "summarise_trace",
]
