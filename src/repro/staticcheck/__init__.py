"""Static analysis over ISA programs and compiled amnesic artifacts.

Layered bottom-up:

* :mod:`~repro.staticcheck.cfg` / :mod:`~repro.staticcheck.dataflow` —
  control-flow graphs and reaching definitions over them;
* :mod:`~repro.staticcheck.diagnostics` — the rule catalog (stable ids,
  severities) and finding/report types;
* :mod:`~repro.staticcheck.rules` — slice-safety verification of
  compiled artifacts (the static counterpart to the fuzz oracle);
* :mod:`~repro.staticcheck.regions` — batchable straight-line region
  analysis, the one source the batched fast backend fuses from;
* :mod:`~repro.staticcheck.layering` — the AST-based import-graph lint;
* :mod:`~repro.staticcheck.faults` — deliberately broken compiler
  passes the rules must catch;
* :mod:`~repro.staticcheck.lint` — the `repro lint` driver.
"""

from .cfg import ControlFlowGraph, build_cfg
from .dataflow import ReachingDefinitions
from .diagnostics import RULES, Finding, LintReport, Severity
from .lint import LintRun, LintSettings, run_lint
from .regions import RegionAnalysis, analyze_regions
from .rules import check_program, verify_compilation

__all__ = [
    "RULES",
    "ControlFlowGraph",
    "Finding",
    "LintReport",
    "LintRun",
    "LintSettings",
    "ReachingDefinitions",
    "RegionAnalysis",
    "Severity",
    "analyze_regions",
    "build_cfg",
    "check_program",
    "run_lint",
    "verify_compilation",
]
