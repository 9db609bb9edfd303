"""Decode plans: each program is analysed and rendered once, bound per CPU.

The first fast-batched decode of a program builds its plan: each pc's
classification, the region analysis and every fused region, loop and
slice as a code object with a binding recipe.  Every later decode of
the same program binds that plan to its own CPU, so each pc is
classified once per program whatever its CPUs differ in.  A CPU that
reuses a plan built under another policy, ``verify`` setting, SFile or
Hist size must run exactly like one decoded from scratch; a copy of a
program must never run its original's code; and a code-generator twin
entered after a decode must still reach the decoded program.
"""

import copy
import pickle

import pytest

from repro.core.amnesic_cpu import AmnesicCPU
from repro.core.backend import BatchedFastAmnesicCPU
from repro.core.execution import prepare_evaluation
from repro.core.policies import POLICY_NAMES, make_policy
from repro.core.sfile import DEFAULT_SFILE_CAPACITY
from repro.energy import paper_energy_model
from repro.errors import ReproError
from repro.fuzz.faults import plan_by_name, stale_load_lru
from repro.fuzz.oracle import _observable
from repro.isa import Imm, Instruction, Opcode, Reg
from repro.machine import fastpath
from repro.workloads.suite import get

SCALE = 0.25


@pytest.fixture(scope="module", params=["mcf", "is"])
def prepared(request):
    model = paper_energy_model()
    setup = prepare_evaluation(
        get(request.param).instantiate(SCALE), model, backend="fast-batched"
    )
    return model, setup


def run(cpu_cls, binary, model, policy, **kwargs):
    """Run *binary* to completion or fault; returns ``(cpu, fault)``."""
    cpu = cpu_cls(binary, model, make_policy(policy), **kwargs)
    try:
        cpu.run()
    except ReproError as fault:
        return cpu, (type(fault).__name__, str(fault), getattr(fault, "pc", None))
    return cpu, None


def has_plan(program):
    return fastpath._plan_key(program) in fastpath._PLANS


def outcome(cpu, fault):
    table = cpu._decoded() if isinstance(cpu, BatchedFastAmnesicCPU) else None
    fused = None if table is None else (table.region_spans, table.loops)
    return fused, fault, _observable(cpu)


def test_reused_plan_matches_a_fresh_decode(prepared):
    model, setup = prepared
    configs = [
        (policy, verify, sfile, hist)
        for policy in POLICY_NAMES
        for verify in (False, True)
        for sfile in (1, DEFAULT_SFILE_CAPACITY)
        for hist in (1, 600)
    ]
    fastpath.clear_codegen_caches()
    planned = 0
    for policy, verify, sfile, hist in configs:
        binary = setup.compilation_for(policy).binary
        kwargs = {"verify": verify, "sfile_capacity": sfile, "hist_capacity": hist}
        # Bind the plan the previous setting built, then decode afresh.
        planned += has_plan(binary.program)
        reused = outcome(*run(BatchedFastAmnesicCPU, binary, model, policy, **kwargs))
        fastpath.clear_codegen_caches()
        fresh = outcome(*run(BatchedFastAmnesicCPU, binary, model, policy, **kwargs))
        assert reused == fresh, (policy, verify, sfile, hist)
        assert fresh[0][0], "nothing fused; the comparison is vacuous"
    # Only the first run of each binary (Oracle's, the shared one) built
    # its plan.
    assert planned == len(configs) - 2


def test_each_pc_is_classified_once_per_program(prepared, monkeypatch):
    model, setup = prepared
    binary = setup.compilation_for("FLC").binary
    fastpath.clear_codegen_caches()
    classified = []
    classify = fastpath._classify

    def counted(program, pc, instruction):
        classified.append(pc)
        return classify(program, pc, instruction)

    monkeypatch.setattr(fastpath, "_classify", counted)
    for policy, verify, hist in (("FLC", True, 600), ("LLC", False, 1), ("Compiler", True, 2)):
        cpu = BatchedFastAmnesicCPU(
            binary, model, make_policy(policy), verify=verify, hist_capacity=hist
        )
        assert cpu._decoded().region_spans
    assert classified == list(range(len(binary.program.instructions)))


def poisoned_copy(binary, visits, spans):
    """A deep copy of *binary* with slice 0 and one fused region poisoned.

    Slice 0's first element and the highest executed pc that writes a
    register inside a fused span become a DIV by zero: the slice aborts
    every traversal, and the region traps (late enough, on mcf and is,
    for slices to have fired first).
    """
    poisoned = copy.deepcopy(binary)
    instructions = poisoned.program.instructions

    def trap(pc):
        victim = instructions[pc]
        instructions[pc] = Instruction(
            Opcode.DIV, dest=victim.dest, srcs=(Imm(1), Imm(0)),
            leaf_id=victim.leaf_id,
        )

    trap(poisoned.program.slices[0].start)
    region = [
        pc
        for start, end in sorted(spans)
        for pc in range(start, end)
        if visits[pc] and isinstance(instructions[pc].dest, Reg)
    ]
    trap(region[-1])
    return poisoned


def poisoned_copy_runs_classic_exact(model, setup):
    binary = setup.compilation_for("Compiler").binary
    original, fault = run(BatchedFastAmnesicCPU, binary, model, "Compiler")
    assert fault is None and has_plan(binary.program)
    poisoned = poisoned_copy(
        binary, original._batch_visit_counts, original._decoded().region_spans
    )
    reference = run(AmnesicCPU, poisoned, model, "Compiler")
    assert reference[1] is not None and reference[1][0] == "ArithmeticFault"
    assert reference[0].stats.recomputation_aborts > 0
    fast = run(BatchedFastAmnesicCPU, poisoned, model, "Compiler")
    return outcome(*fast)[1:] == outcome(*reference)[1:]


def test_poisoned_copy_runs_its_own_code(prepared):
    model, setup = prepared
    assert poisoned_copy_runs_classic_exact(model, setup)


def test_poisoned_copy_catches_plan_by_name(prepared):
    model, setup = prepared
    with plan_by_name():
        assert not poisoned_copy_runs_classic_exact(model, setup)
    assert poisoned_copy_runs_classic_exact(model, setup)


def test_twin_reaches_a_program_decoded_before_it(prepared):
    model, setup = prepared
    binary = setup.compilation_for("FLC").binary
    reference = outcome(*run(AmnesicCPU, binary, model, "FLC"))[1:]
    assert outcome(*run(BatchedFastAmnesicCPU, binary, model, "FLC"))[1:] == reference
    assert has_plan(binary.program)
    with stale_load_lru():
        broken = outcome(*run(BatchedFastAmnesicCPU, binary, model, "FLC"))[1:]
    assert broken != reference
    assert outcome(*run(BatchedFastAmnesicCPU, binary, model, "FLC"))[1:] == reference


def test_decoded_cpu_pickles_without_its_decode(prepared):
    model, setup = prepared
    binary = setup.compilation_for("LLC").binary
    cpu, _ = run(BatchedFastAmnesicCPU, binary, model, "LLC")
    assert "_batch_decode" in cpu.__dict__
    clone = pickle.loads(pickle.dumps(cpu))
    assert "_batch_decode" not in clone.__dict__
    # The clone's program is a new object: it gets a plan of its own.
    assert not has_plan(clone.program)
    assert clone._decoded().region_spans == cpu._decoded().region_spans
    assert has_plan(clone.program)
