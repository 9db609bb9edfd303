"""Per-policy RCMP on ``fast-batched``: what stays classic, what gets caught.

``fast-batched`` renders each RCMP of a paper policy from its probe
depth and fire rule, so policies of one depth share the RCMP code; a
live telemetry session and any other policy (a paper policy's subclass
included) keep the classic scheduler, so per-RCMP decision records and
``rcmp.*``/``policy.*`` metrics are the classic ones, and an unmetered
paper-policy run never enters the classic handler at all.  The broken
RCMP twins of :mod:`repro.fuzz.faults` must be caught both by the
backend-equivalence oracle on a committed corpus entry and by the
kernel parity comparison.
"""

import copy
import dataclasses
import operator
from pathlib import Path

import pytest

from repro.core.amnesic_cpu import AmnesicCPU
from repro.core.backend import BACKENDS, BatchedFastAmnesicCPU
from repro.core.execution import prepare_evaluation, run_amnesic
from repro.core.policies import POLICY_NAMES, LLCPolicy, make_policy
from repro.energy import paper_energy_model
from repro.errors import RecomputationMismatch
from repro.fuzz import (
    check_program,
    default_fuzz_model,
    load_entry,
    materialize,
)
from repro.fuzz.corpus import corpus_paths
from repro.fuzz.faults import stale_hist_lru, unprobed_l2
from repro.fuzz.oracle import _observable
from repro.isa import Imm, Opcode
from repro.telemetry.runtime import telemetry_session
from repro.telemetry.sink import ListSink
from repro.workloads.suite import get

from .test_amnesic_backend_parity import SCALE

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

#: The metric series a decision record feeds (plus every ``policy.*``).
METERED = ("rcmp.outcomes", "rcmp.slice_length", "rcmp.hist")


@pytest.fixture(scope="module")
def mcf():
    model = paper_energy_model()
    setup = prepare_evaluation(
        get("mcf").instantiate(SCALE), model, backend="fast-batched"
    )
    return model, setup


def metered_run(backend, model, setup, policy):
    sink = ListSink()
    with telemetry_session(sink=sink) as telemetry:
        run_amnesic(setup.compilation_for(policy), policy, model, backend=backend)
    series = [
        entry
        for entry in telemetry.registry.dump()
        if entry["name"] in METERED or entry["name"].startswith("policy.")
    ]
    records = [event for event in sink.events if event["type"] == "rcmp"]
    return series, records


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_telemetry_session_matches_classic(mcf, policy):
    model, setup = mcf
    series, records = metered_run("classic", model, setup, policy)
    assert records, "no RCMP decision records; the parity is vacuous"
    assert metered_run("fast-batched", model, setup, policy) == (series, records)


def test_unmetered_run_never_enters_the_classic_scheduler(mcf, monkeypatch):
    model, setup = mcf
    entered = []
    handler = AmnesicCPU._execute_rcmp

    def counting(self, instruction):
        entered.append(type(self).__name__)
        return handler(self, instruction)

    monkeypatch.setattr(AmnesicCPU, "_execute_rcmp", counting)
    for policy in POLICY_NAMES:
        compilation = setup.compilation_for(policy)
        stats = run_amnesic(compilation, policy, model, backend="fast-batched").stats
        assert stats.rcmp_encountered > 0, policy
        assert entered == [], policy
    run_amnesic(setup.compilation_for("FLC"), "FLC", model, backend="classic")
    assert entered, "the patched handler is not the one classic calls"


def test_policies_of_one_probe_depth_bind_one_rcmp_code(mcf):
    model, setup = mcf
    binary = setup.compilation_for("Compiler").binary
    rcmps = [
        pc
        for pc, instruction in enumerate(binary.program.instructions)
        if instruction.opcode is Opcode.RCMP
    ]
    assert rcmps
    codes = {}
    for policy in ("Compiler", "C-Oracle", "FLC"):
        cpu = BatchedFastAmnesicCPU(binary, model, make_policy(policy))
        cpu.run()
        fns = cpu._decoded().fns
        codes[policy] = [fns[pc].__code__ for pc in rcmps]
        assert cpu._rcmp_depth() == (1 if policy == "FLC" else 0)
    assert all(map(operator.is_, codes["Compiler"], codes["C-Oracle"]))
    assert not any(map(operator.is_, codes["Compiler"], codes["FLC"]))


class FreeProbeLLC(LLCPolicy):
    """LLC that decides for itself: its probes cost nothing."""

    name = "LLC-free-probe"

    def decide(self, context):
        return dataclasses.replace(super().decide(context), probe_cost=None)


def test_subclass_that_overrides_decide_keeps_the_classic_scheduler(
    mcf, monkeypatch
):
    model, setup = mcf
    compilation = setup.compilation_for("LLC")
    entered = []
    handler = AmnesicCPU._execute_rcmp

    def counting(self, instruction):
        entered.append(type(self).__name__)
        return handler(self, instruction)

    monkeypatch.setattr(AmnesicCPU, "_execute_rcmp", counting)
    reference, fast = (
        run_amnesic(compilation, FreeProbeLLC(), model, backend=backend).cpu
        for backend in ("classic", "fast-batched")
    )
    assert fast._rcmp_depth() is None
    assert entered.count("BatchedFastAmnesicCPU") == fast.stats.rcmp_encountered > 0
    assert _observable(fast) == _observable(reference)
    llc = run_amnesic(compilation, "LLC", model, backend="fast-batched").cpu
    assert llc.account.snapshot() != fast.account.snapshot()


@pytest.mark.parametrize("capacity", (1, 2))
def test_hist_pressure_parity(mcf, capacity):
    # A Hist too small for the binary's checkpoints leaves RCMPs whose
    # policy fires without a ready slice: the fallback path, with the
    # probe charged on top of the load under FLC and LLC.
    model, setup = mcf
    for policy in POLICY_NAMES:
        compilation = setup.compilation_for(policy)
        reference, fast = (
            run_amnesic(
                compilation, policy, model, backend=backend, hist_capacity=capacity
            ).cpu
            for backend in ("classic", "fast-batched")
        )
        assert _observable(fast) == _observable(reference), policy
        if policy in ("FLC", "LLC"):
            assert reference.stats.recomputation_fallbacks > 0, policy


def corrupted(binary):
    """*binary* with every slice immediate off by one."""
    binary = copy.deepcopy(binary)
    instructions = binary.program.instructions
    for region in binary.program.slices.values():
        for pc in range(region.start, region.end - 1):
            instruction = instructions[pc]
            instructions[pc] = dataclasses.replace(
                instruction,
                srcs=tuple(
                    Imm(src.value + 1) if isinstance(src, Imm) else src
                    for src in instruction.srcs
                ),
            )
    return binary


def test_verify_checks_every_fired_slice(mcf):
    model, setup = mcf
    caught = 0
    for policy in POLICY_NAMES:
        binary = corrupted(setup.compilation_for(policy).binary)
        outcomes = []
        for backend in ("classic", "fast-batched"):
            cpu = BACKENDS[backend].amnesic_cls(
                binary, model, make_policy(policy), verify=True
            )
            try:
                cpu.run()
            except RecomputationMismatch as error:
                outcomes.append((str(error), _observable(cpu)))
            else:
                outcomes.append((None, _observable(cpu)))
        assert outcomes[1] == outcomes[0], policy
        caught += outcomes[0][0] is not None
    assert caught, "no policy fired a corrupted slice"


TWINS = (
    pytest.param(unprobed_l2, "loop-carried", id="unprobed_l2"),
    pytest.param(stale_hist_lru, "hist-lru-order", id="stale_hist_lru"),
)


@pytest.mark.parametrize(("twin", "entry_name"), TWINS)
def test_oracle_reports_rcmp_twin_on_corpus_entry(twin, entry_name):
    (path,) = [
        p for p in corpus_paths(CORPUS_DIR) if p.stem.startswith(entry_name + "-")
    ]
    entry = load_entry(path)
    program = materialize(entry.spec)
    options = dict(
        spec=entry.spec,
        model=default_fuzz_model(),
        policies=entry.policies or POLICY_NAMES,
        backend="fast-batched",
    )
    assert check_program(program, **options).ok
    with twin():
        verdict = check_program(program, **options)
    assert verdict.failures
    assert {failure.kind for failure in verdict.failures} == {"backend"}


@pytest.mark.parametrize(
    "twin", (unprobed_l2, stale_hist_lru), ids=lambda twin: twin.__name__
)
def test_kernel_parity_catches_rcmp_twin(mcf, twin):
    model, setup = mcf
    diverged = []
    for policy in POLICY_NAMES:
        compilation = setup.compilation_for(policy)
        reference = run_amnesic(compilation, policy, model, backend="classic")
        with twin():
            broken = run_amnesic(compilation, policy, model, backend="fast-batched")
        if _observable(broken.cpu) != _observable(reference.cpu):
            diverged.append(policy)
    assert diverged
