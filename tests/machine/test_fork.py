"""Forks: every later amnesic run of a binary resumes at its first RCMP.

A binary's first fast-batched amnesic run under a model only marks its
decode plan, the second snapshots the machine at its first ``RCMP``
dispatch, and every later run whose budget reaches past the fork index
restores a copy and rebuilds its Hist from the logged ``REC`` writes
at its own capacity.  A deep copy of a binary is a new program, with no
plan and no fork, so a run of one is the unforked reference: every run
must equal it in fault, in everything the fuzz oracle compares and in
per-pc visit counts, under every policy, ``verify`` setting, Hist and
SFile size and ``concurrent_offload``, whichever run took the snapshot.
Budgets around the fork index must end exactly as unforked and classic
runs do, and a restored run under a live telemetry session must
publish what an unforked one does.  ``fork_ignores_hist_capacity()``
and ``fork_aliases_state()`` must be caught.
"""

import copy
import itertools
import os

import pytest

from repro.core.amnesic_cpu import AmnesicCPU
from repro.core.backend import BatchedFastAmnesicCPU
from repro.core.execution import prepare_evaluation
from repro.core.policies import POLICY_NAMES, make_policy
from repro.core.sfile import DEFAULT_SFILE_CAPACITY
from repro.energy import paper_energy_model
from repro.errors import ReproError
from repro.fuzz.faults import fork_aliases_state, fork_ignores_hist_capacity
from repro.fuzz.oracle import _observable
from repro.machine import fastpath
from repro.telemetry.runtime import telemetry_session
from repro.telemetry.sink import ListSink
from repro.workloads.suite import get

SCALE = 0.25

#: The nightly profile runs the whole configuration product (720 runs
#: over the three kernels and two orders); tier-1 runs 15 configurations
#: per kernel that still cover every value of every dimension.
DEEP = os.environ.get("HYPOTHESIS_PROFILE") == "nightly"


def configurations():
    """``(policy, verify, Hist capacity, SFile capacity, concurrent_offload)``."""
    if DEEP:
        return list(
            itertools.product(
                POLICY_NAMES, (False, True), (1, 2, 600),
                (1, DEFAULT_SFILE_CAPACITY), (False, True),
            )
        )
    sfiles = (1, DEFAULT_SFILE_CAPACITY)
    return [
        (policy, i % 2 == 1, hist, sfiles[i // 2 % 2], i // 4 % 2 == 1)
        for i, (policy, hist) in enumerate(itertools.product(POLICY_NAMES, (1, 2, 600)))
    ]


CONFIGS = configurations()

#: One configuration for the tests that need only one.
FLC = ("FLC", True, 2, DEFAULT_SFILE_CAPACITY, False)


def binary_for(setup, policy):
    return setup.compilation_for(policy).binary


@pytest.fixture(scope="module", params=["mcf", "is", "bfs"])
def prepared(request):
    """The kernel's model, prepared evaluation and unforked outcomes by config."""
    model = paper_energy_model()
    setup = prepare_evaluation(
        get(request.param).instantiate(SCALE), model, backend="fast-batched"
    )
    setup.compilation_for("Oracle")
    return request.param, model, setup, {}


def run(cpu_cls, binary, model, config, **kwargs):
    """Run *binary* to its end; returns ``(cpu, fault)``."""
    policy, verify, hist, sfile, offload = config
    cpu = cpu_cls(
        binary, model, make_policy(policy), verify=verify, hist_capacity=hist,
        sfile_capacity=sfile, concurrent_offload=offload, **kwargs,
    )
    try:
        cpu.run()
    except ReproError as fault:
        return cpu, (type(fault).__name__, str(fault), fault.pc)
    return cpu, None


def outcome(binary, model, config, **kwargs):
    cpu, fault = run(BatchedFastAmnesicCPU, binary, model, config, **kwargs)
    return fault, _observable(cpu), cpu._batch_visit_counts


def unforked(binary, model, config, **kwargs):
    return outcome(copy.deepcopy(binary), model, config, **kwargs)


@pytest.fixture
def restores(monkeypatch):
    """The fork index of every run that resumes from a fork, in order."""
    counted = []
    restore = fastpath._restore

    def counting(fork, cpu, table):
        counted.append(fork.index)
        restore(fork, cpu, table)

    monkeypatch.setattr(fastpath, "_restore", counting)
    return counted


def fork_of(binary, model):
    return fastpath._plan(binary.program).forks[model.fingerprint()]


def forked_runs(prepared):
    """Whether each run of both orders equals its unforked reference.

    Each order runs on its own copies of the two binaries, so each
    takes its snapshot in a different configuration.
    """
    _, model, setup, references = prepared
    for order in (CONFIGS, CONFIGS[::-1]):
        binaries = {
            policy: copy.deepcopy(binary_for(setup, policy))
            for policy in ("Oracle", "FLC")
        }
        for config in order:
            policy = "Oracle" if config[0] == "Oracle" else "FLC"
            if config not in references:
                references[config] = unforked(binary_for(setup, policy), model, config)
            yield outcome(binaries[policy], model, config) == references[config]


def test_every_forked_run_matches_an_unforked_one(prepared, restores):
    assert all(forked_runs(prepared))
    # First run marks, second snapshots, every later one restores: on
    # each order's two binaries.
    assert len(restores) == 2 * (len(CONFIGS) - 4)


def test_parity_catches_fork_ignoring_hist_capacity(prepared):
    if prepared[0] == "bfs":
        pytest.skip("bfs writes no REC before its first RCMP")
    with fork_ignores_hist_capacity():
        assert not all(forked_runs(prepared))
    assert all(forked_runs(prepared))


def test_parity_catches_fork_aliasing_state(prepared):
    with fork_aliases_state():
        assert not all(forked_runs(prepared))
    assert all(forked_runs(prepared))


def test_budgets_around_the_fork_index_end_as_unforked_and_classic(prepared, restores):
    _, model, setup, _ = prepared
    original = binary_for(setup, "FLC")
    binary = copy.deepcopy(original)
    for _ in range(2):
        outcome(binary, model, FLC)
    k = fork_of(binary, model).index

    def reference(budget):
        classic, fault = run(AmnesicCPU, original, model, FLC, max_instructions=budget)
        expected = unforked(original, model, FLC, max_instructions=budget)
        assert expected[:2] == (fault, _observable(classic))
        return expected

    # Snapshot-taking runs: the second run of a fresh copy; only a
    # budget past the fork index reaches the stop.
    for budget in (k - 1, k, k + 1):
        taker = copy.deepcopy(original)
        outcome(taker, model, FLC)
        assert outcome(taker, model, FLC, max_instructions=budget) == reference(budget)
        assert (fork_of(taker, model) is not None) == (budget > k)
    assert not restores
    # Restored runs: only a budget past the fork index restores.
    for budget in (k - 1, k, k + 1):
        assert outcome(binary, model, FLC, max_instructions=budget) == reference(budget)
    assert restores == [k]


def test_classic_never_forks(prepared, restores):
    _, model, setup, _ = prepared
    binary = copy.deepcopy(binary_for(setup, "FLC"))
    for cpu_cls in (BatchedFastAmnesicCPU,) * 2 + (AmnesicCPU,) * 2:
        run(cpu_cls, binary, model, FLC)
    assert fork_of(binary, model) is not None
    assert not restores


def test_clearing_the_codegen_caches_drops_every_fork(prepared):
    _, model, setup, _ = prepared
    binary = copy.deepcopy(binary_for(setup, "FLC"))
    for _ in range(2):
        outcome(binary, model, FLC)
    assert fork_of(binary, model) is not None
    fastpath.clear_codegen_caches()
    assert fastpath._plan_key(binary.program) not in fastpath._PLANS


#: What a metered amnesic run publishes besides its decision records.
PUBLISHED = ("runstats.", "rcmp.", "policy.")


def metered(binary, model, config):
    sink = ListSink()
    with telemetry_session(sink=sink) as telemetry:
        run(BatchedFastAmnesicCPU, binary, model, config)
    series = [
        entry
        for entry in telemetry.registry.dump()
        if entry["name"].startswith(PUBLISHED)
    ]
    records = [event for event in sink.events if event["type"] == "rcmp"]
    (span,) = [
        span for span in telemetry.tracer.completed if span.name == "execute.amnesic"
    ]
    return series, records, span.attrs


def test_restored_metered_run_publishes_what_an_unforked_one_does(prepared, restores):
    _, model, setup, _ = prepared
    config = ("LLC",) + FLC[1:]
    binary = copy.deepcopy(binary_for(setup, "LLC"))
    series, records, attrs = metered(copy.deepcopy(binary), model, config)
    assert records, "no RCMP decision records; the parity is vacuous"
    assert "restored" not in attrs
    # Unmetered runs mark the binary and take its snapshot.
    for _ in range(2):
        outcome(binary, model, config)
    restored = metered(binary, model, config)
    assert restored[:2] == (series, records)
    assert restored[2]["restored"] == fork_of(binary, model).index == restores[0] > 0
    assert restored[2]["instructions"] == attrs["instructions"]
