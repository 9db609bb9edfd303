"""Traced operand values are a view over writers and results.

The dependence trace stores no operand values:
``DependenceTracker.operands(i)`` derives each register source's value
from the recorded result of its last writer (0 for ``r0`` and for a
register nothing wrote yet), and an immediate's from the static table.
Each retired instance must agree with the semantics that retired it:

* compute: the evaluator over the derived operands reproduces the
  recorded result bit for bit;
* branch: the condition over the derived operands sends control to the
  next traced pc (the target when taken, else the fall-through);
* JR: the derived target is the next traced pc;
* LD/ST: the derived address operands sum to the traced address, and a
  load of a stored cell reads what its producing store's derived value
  operand held.

Checked on every kernel at scale 0.25 and every corpus entry, traced on
classic and on fast-batched.  A view that derives from
``value_writers``, which skips JAL link-register writes, must fail on
the call-spill kernel, whose subroutine returns through its link.
"""

import struct
from pathlib import Path

import pytest

from repro.core.backend import BACKENDS
from repro.energy.tech import paper_energy_model
from repro.fuzz import default_fuzz_model, load_entry, materialize
from repro.fuzz.corpus import corpus_paths
from repro.fuzz.oracle import DEFAULT_MAX_INSTRUCTIONS
from repro.isa import Opcode
from repro.isa.opcodes import Category
from repro.isa.semantics import branch_taken, evaluate
from repro.trace import DependenceTracker
from repro.trace.dependence import last_before
from repro.workloads.suite import REGISTRY

from ..conftest import traced_run
from .test_io_compat import build_call_spill_kernel
from .test_io_compat import model as call_spill_model

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

#: Kernels bottom out at two phases here, so this is the cheapest scale
#: that still runs every phase of every kernel.
KERNEL_SCALE = 0.25


def same_bits(a, b):
    """Equal type and value; floats compare by their bits (NaN-aware)."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


def view_violations(tracker, program):
    """``(index, pc, reason)`` of every instance the derived view contradicts."""
    found = []
    last = len(tracker) - 1
    for info in tracker.static_pcs():
        instruction = program.instructions[info.pc]
        category = info.opcode.category
        for index in info.instances:
            operands = tracker.operands(index)
            if info.is_compute:
                result = evaluate(info.opcode, operands)
                if not same_bits(result, tracker.result(index)):
                    found.append((index, info.pc, "result"))
            elif index == last:
                continue  # no next traced pc to check control flow against
            elif category is Category.BRANCH:
                taken = branch_taken(info.opcode, *operands)
                target = program.pc_of(instruction.target) if taken else info.pc + 1
                if tracker.pc_at(index + 1) != target:
                    found.append((index, info.pc, "branch"))
            elif info.opcode is Opcode.JR and tracker.pc_at(index + 1) != operands[0]:
                found.append((index, info.pc, "jr"))
    for index, info, address, _, producer in tracker.memory_accesses():
        base, offset = tracker.operands(index)[-2:]
        if base + offset != address:
            found.append((index, info.pc, "address"))
        if producer is not None and not same_bits(
            tracker.result(index), tracker.operands(producer)[0]
        ):
            found.append((index, info.pc, "stored value"))
    return found


def check(backend, program, model, budget=DEFAULT_MAX_INSTRUCTIONS):
    tracker, _ = traced_run(BACKENDS[backend].cpu_cls, program, model, budget)
    assert len(tracker) > 0
    return view_violations(tracker, program)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", REGISTRY.names())
def test_kernel_view_matches_semantics(name, backend):
    program = REGISTRY.get(name).instantiate(KERNEL_SCALE)
    assert check(backend, program, paper_energy_model()) == []


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "path", corpus_paths(CORPUS_DIR), ids=lambda path: path.stem
)
def test_corpus_view_matches_semantics(path, backend):
    entry = load_entry(path)
    budget = entry.max_instructions or DEFAULT_MAX_INSTRUCTIONS
    program = materialize(entry.spec)
    assert check(backend, program, default_fuzz_model(), budget) == []


def _read_value_writers(self, reg, index):
    """The mutant view: producers among value writers only."""
    producer = None if reg == 0 else last_before(self.value_writers(reg), index)
    return producer, 0 if producer is None else self._results[producer]


@pytest.mark.parametrize("backend", BACKENDS)
def test_view_over_value_writers_is_caught(backend, monkeypatch):
    program = build_call_spill_kernel()
    assert check(backend, program, call_spill_model()) == []
    monkeypatch.setattr(DependenceTracker, "_read", _read_value_writers)
    violations = check(backend, program, call_spill_model())
    assert "jr" in {reason for _, _, reason in violations}
