"""Traced fast-path runs build the classic dependence trace, column for column.

The classic ``CPU`` fills a :class:`~repro.trace.DependenceTracker`
through one ``retire`` call per retired instruction, the reference;
``BatchedFastCPU``'s traced per-pc functions append the same columns
from generated code, and only ``HALT`` and thunked pcs still retire
through the classic handler.
Every query the compiler reads must answer identically on the two
trackers: on all 33 kernels, on every corpus entry at its own budget,
on budgets that trip mid-run and on a fault.  A broken twin that defers
the stores' last-store update must be caught.
"""

from pathlib import Path

import pytest

from repro.energy.tech import paper_energy_model
from repro.fuzz import default_fuzz_model, load_entry, materialize
from repro.fuzz.corpus import corpus_paths
from repro.fuzz.faults import deferred_store_producer
from repro.fuzz.oracle import DEFAULT_MAX_INSTRUCTIONS
from repro.isa import ProgramBuilder
from repro.machine import CPU, BatchedFastCPU
from repro.workloads.suite import REGISTRY

from ..conftest import trace_divergence, traced_run

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

#: Kernels bottom out at two phases here, so this is the cheapest scale
#: that still runs every phase of every kernel.
KERNEL_SCALE = 0.25

KERNEL_MODEL = paper_energy_model()
FUZZ_MODEL = default_fuzz_model()


def column_parity(program, model, max_instructions=DEFAULT_MAX_INSTRUCTIONS):
    """``(divergence, fault)`` of a classic and a fast-batched traced run.

    *divergence* is None when the trackers answer every query alike and
    both runs ended on the same fault (or none), which is *fault*.
    """
    classic, fault = traced_run(CPU, program, model, max_instructions)
    fast, fast_fault = traced_run(BatchedFastCPU, program, model, max_instructions)
    if fast_fault != fault:
        return f"fault {fast_fault}, expected {fault}", fault
    return trace_divergence(classic, fast, program), fault


def corpus_program(stem):
    (path,) = [p for p in corpus_paths(CORPUS_DIR) if p.stem.startswith(stem + "-")]
    entry = load_entry(path)
    return materialize(entry.spec), entry.max_instructions or DEFAULT_MAX_INSTRUCTIONS


@pytest.mark.parametrize("name", REGISTRY.names())
def test_kernel_columns_match_classic(name):
    program = REGISTRY.get(name).instantiate(KERNEL_SCALE)
    divergence, fault = column_parity(program, KERNEL_MODEL)
    assert divergence is None
    assert fault is None


@pytest.mark.parametrize(
    "path", corpus_paths(CORPUS_DIR), ids=lambda path: path.stem
)
def test_corpus_columns_match_classic(path):
    entry = load_entry(path)
    program = materialize(entry.spec)
    budget = entry.max_instructions or DEFAULT_MAX_INSTRUCTIONS
    assert column_parity(program, FUZZ_MODEL, budget)[0] is None


@pytest.mark.parametrize("budget", [777, 5_000])
@pytest.mark.parametrize("name", ["mcf", "is"])
def test_budget_trip_columns_match_classic(name, budget):
    program = REGISTRY.get(name).instantiate(KERNEL_SCALE)
    divergence, fault = column_parity(program, KERNEL_MODEL, budget)
    assert divergence is None
    assert fault[0] == "ExecutionLimitExceeded"


def test_fault_columns_match_classic():
    """Stores and reloads, then a load of an unmapped address."""
    b = ProgramBuilder("fault-ending")
    slots = b.reserve(8)
    base, v, bad = b.regs("base", "v", "bad")
    b.li(base, slots)
    with b.loop("i", 0, 8) as i:
        b.add(v, i, base)
        b.st(i, v)
        b.ld(v, v)
    b.li(bad, 1 << 40)
    b.ld(v, bad)
    b.halt()
    divergence, fault = column_parity(b.build(), FUZZ_MODEL)
    assert divergence is None
    assert fault[0] == "MemoryFault"


@pytest.mark.parametrize("stem", ["batch-alias-memory", "aliasing-store"])
def test_parity_catches_the_deferred_store_producer(stem):
    program, budget = corpus_program(stem)
    with deferred_store_producer():
        divergence, _ = column_parity(program, FUZZ_MODEL, budget)
    assert divergence is not None
    # Leaving the context restores the description and drops the code
    # generated from the broken one.
    assert column_parity(program, FUZZ_MODEL, budget)[0] is None
