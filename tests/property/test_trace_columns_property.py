"""Property: traced fast-batched runs build the classic dependence trace.

Over generated fuzz programs (Hypothesis drives the generator seed and
the budget), a tracker filled by ``BatchedFastCPU``'s direct column
appends answers every query as the one the classic ``CPU`` fills
through events, on clean runs, faulting runs and budget trips alike.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.fuzz import default_fuzz_model, materialize, random_spec
from repro.fuzz.oracle import DEFAULT_MAX_INSTRUCTIONS
from repro.machine import CPU, BatchedFastCPU

from ..conftest import trace_divergence, traced_run

MODEL = default_fuzz_model()


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    budget=st.one_of(st.none(), st.integers(min_value=1, max_value=300)),
)
@settings(max_examples=settings.default.max_examples // 4)
def test_traced_fast_path_builds_classic_columns(seed, budget):
    try:
        program = materialize(random_spec(seed))
    except ReproError:
        program = None
    assume(program is not None)
    budget = budget or DEFAULT_MAX_INSTRUCTIONS
    classic, fault = traced_run(CPU, program, MODEL, budget)
    fast, fast_fault = traced_run(BatchedFastCPU, program, MODEL, budget)
    assert fast_fault == fault
    assert trace_divergence(classic, fast, program) is None
