"""Benchmark harness plumbing.

Experiment reports are collected here and echoed after the
pytest-benchmark table (pytest captures stdout during the runs), and
also written to ``results/<experiment>.txt`` so a benchmark session
leaves the regenerated tables on disk.
"""

import pathlib

from repro.harness import SuiteRunner

_REPORTS = []
RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

#: The runner every benchmark shares, so one session evaluates each
#: benchmark exactly once no matter how many experiments consume it; it
#: honours ``$REPRO_JOBS``, ``$REPRO_CACHE_DIR`` and ``$REPRO_LEDGER_DIR``.
SHARED_RUNNER = SuiteRunner.from_env()


def pytest_report_header(config):
    """Surface the shared runner's engine settings in the session header.

    The harness honours ``REPRO_JOBS`` (parallel evaluation) and
    ``REPRO_CACHE_DIR`` (persistent result cache); echoing the resolved
    configuration makes warm-cache and parallel benchmark sessions
    distinguishable in CI logs.
    """
    cache = SHARED_RUNNER.result_cache
    cache_state = "off" if cache is None else str(cache.directory)
    return (
        f"repro harness: jobs={SHARED_RUNNER.jobs}, result cache={cache_state}"
    )


def record_report(experiment_id: str, text: str) -> None:
    """Register a report for the end-of-session summary and save it."""
    _REPORTS.append((experiment_id, text))
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{experiment_id}.txt").write_text(text + "\n")


def pytest_terminal_summary(terminalreporter):
    if not _REPORTS:
        return
    terminalreporter.write_sep("=", "reproduced tables and figures")
    for experiment_id, text in _REPORTS:
        terminalreporter.write_sep("-", experiment_id)
        for line in text.splitlines():
            terminalreporter.write_line(line)
