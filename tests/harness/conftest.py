"""Harness fixtures shared across modules."""

import pytest

from repro.harness.parallel import default_jobs
from repro.harness.runner import SuiteRunner


@pytest.fixture(scope="session")
def suite_runner() -> SuiteRunner:
    """The responsive suite at full scale, evaluated once per session.

    It honours ``$REPRO_JOBS``/``$REPRO_CACHE_DIR`` (floored at two
    workers), so warm-cache CI sessions replay it from disk.  The golden
    experiments and the report-structure tests read it; a test that
    invalidates or rescales a runner builds its own.
    """
    return SuiteRunner.from_env(jobs=max(2, default_jobs()))
