"""Fused slices against the interpreted reference, on every kernel.

The classic :class:`~repro.core.amnesic_cpu.AmnesicCPU` traverses a
slice one interpreted instruction at a time; ``fast-batched`` runs each
slice as one generated function, each RCMP as one function for the
run's policy, and the main program through per-pc functions and fused
regions.  Each kernel is compiled once (the
probabilistic and the Oracle binary) and run under all five policies on
both backends with verification on; the runs must agree exactly on
RunStats, the energy breakdown, modeled time, registers, memory, the
Hist/SFile/IBuff state, the Hist and IBuff entry order, and the
hierarchy: its stats, each cache's stats (tag probes included) and
resident lines in LRU order — everything a generated RCMP touches.
"""

import dataclasses

import pytest

from repro.core.execution import prepare_evaluation, run_amnesic
from repro.core.policies import POLICY_NAMES
from repro.energy import paper_energy_model
from repro.workloads import all_specs

#: Small enough to keep the classic runs cheap, large enough that every
#: kernel still fires slices under the always-fire policies.
SCALE = 0.1


def final_state(cpu):
    hierarchy = cpu.hierarchy
    return {
        "stats": dataclasses.asdict(cpu.stats),
        "energy": cpu.account.breakdown(),
        "time": cpu.account.total_time_ns,
        "registers": list(cpu.registers),
        "memory": cpu.memory.snapshot(),
        "fired": sorted(cpu.fired_slice_ids),
        "hist": cpu.hist.observe(),
        "sfile": cpu.sfile.observe(),
        "ibuff": cpu.ibuff.observe(),
        "hierarchy": dataclasses.asdict(hierarchy.stats),
        "l1": dataclasses.asdict(hierarchy.l1.stats),
        "l2": dataclasses.asdict(hierarchy.l2.stats),
        "l1 lines": list(hierarchy.l1.resident_lines().items()),
        "l2 lines": list(hierarchy.l2.resident_lines().items()),
        "hist entries": cpu.hist.entries(),
        "ibuff entries": cpu.ibuff.entries(),
    }


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
        assert final_state(fast) == final_state(reference), policy
        fired += reference.stats.recomputations_fired
    assert fired > 0, "no policy fired a slice; the parity is vacuous"
