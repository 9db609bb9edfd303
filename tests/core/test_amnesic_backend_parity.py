"""Fused slices against the interpreted reference, on every kernel.

The classic :class:`~repro.core.amnesic_cpu.AmnesicCPU` traverses a
slice one interpreted instruction at a time; ``fast-batched`` runs each
slice as one generated function, each RCMP as one function for the
run's policy, and the main program through per-pc functions and fused
regions.  Each kernel is compiled once (the
probabilistic and the Oracle binary) and run under all five policies on
both backends with verification on; the runs must agree exactly on
everything the fuzz oracle compares: registers, memory, pc, dynamic
count, RunStats, the energy breakdown, modeled time, the
Hist/SFile/IBuff state, the Hist and IBuff entry order, and the
hierarchy: its stats, each cache's state, stats (tag probes included)
and resident lines in LRU order — everything a generated RCMP touches.
"""

import pytest

from repro.core.execution import prepare_evaluation, run_amnesic
from repro.core.policies import POLICY_NAMES
from repro.energy import paper_energy_model
from repro.fuzz.oracle import _observable
from repro.workloads import all_specs

#: Small enough to keep the classic runs cheap, large enough that every
#: kernel still fires slices under the always-fire policies.
SCALE = 0.1


@pytest.mark.parametrize("spec", all_specs(), ids=lambda spec: spec.name)
def test_every_kernel_amnesic_parity(spec):
    model = paper_energy_model()
    setup = prepare_evaluation(
        spec.instantiate(SCALE), model, backend="fast-batched"
    )
    fired = 0
    for policy in POLICY_NAMES:
        compilation = setup.compilation_for(policy)
        reference, fast = (
            run_amnesic(compilation, policy, model, backend=backend).cpu
            for backend in ("classic", "fast-batched")
        )
        assert _observable(fast) == _observable(reference), policy
        fired += reference.stats.recomputations_fired
    assert fired > 0, "no policy fired a slice; the parity is vacuous"
