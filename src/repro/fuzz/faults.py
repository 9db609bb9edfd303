"""Deliberately broken schedulers, replays, caches and fast-path code.

A differential fuzzer that has never caught a bug proves nothing.  These
CPU variants and code-generator edits inject known defects so the test
suite can assert the whole loop end-to-end: the generator produces a
program that exercises the broken path, the oracle flags the
divergence, and the shrinker reduces it to a minimal counterexample.
They are shipped in the package (not buried in tests) so future
scheduler/backend work can re-run the same mutation check against new
policies.  One breaks the classic reference's own inlined run loop,
which every classic run takes, profiled or not.  Seven break what is
computed once and reused (the compiler's front-end memo, fast-path
decode plans, fused code shared by shape, a traced decode's trace
columns, the one-call miss walk, and the fork every later run of a
binary resumes from); the oracle cannot see most of them, so each names
the test that does.
"""

from __future__ import annotations

import contextlib
import inspect
import textwrap
from bisect import bisect_right
from typing import Iterator, Optional, Sequence

from ..compiler import amnesic_pass, leaves
from ..core.amnesic_cpu import AmnesicCPU
from ..core.backend import Backend
from ..core.hist import HistoryTable
from ..errors import ExecutionLimitExceeded, MachineFault
from ..isa.opcodes import _OPCODE_CATEGORY
from ..machine import fastpath, hierarchy
from ..machine.cpu import CPU


class _ZeroReadHist(HistoryTable):
    """A history table whose reads skip the lookup and fabricate zeros."""

    def read(self, slice_id: int, leaf_id: int, slot: int):
        super().read(slice_id, leaf_id, slot)  # keep LRU/accounting honest
        return 0


class SkipHistReadCPU(AmnesicCPU):
    """Bug: slice traversal skips the Hist lookup for checkpointed leaves.

    Readiness checks (``has``) still pass and REC still records, so the
    scheduler happily fires — but every checkpoint-supplied operand
    arrives as zero instead of the recorded value.  Any fired slice with
    a Hist leaf whose true value is non-zero recomputes the wrong value,
    which (with ``verify=False``) silently corrupts the destination
    register and everything downstream of it.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.hist = _ZeroReadHist(self.hist.capacity)


class EagerFireCPU(AmnesicCPU):
    """Bug: fires without checking slice readiness, on one SFile entry.

    The readiness check exists to guarantee a slice's scratch demand
    fits the SFile before traversal begins; skipping it means any slice
    needing more than the single available entry exhausts the scratch
    file mid-traversal and faults (:class:`~repro.errors.SchedulerError`)
    instead of falling back to the load.  Useful for checking that the
    oracle treats amnesic-side exceptions as failures, not crashes.
    """

    def __init__(self, *args, **kwargs):
        kwargs["sfile_capacity"] = 1
        super().__init__(*args, **kwargs)

    def _slice_ready(self, info) -> bool:
        return True


#: The broken schedulers as backends the oracle holds to classic.
SKIP_HIST_READ = Backend("skip-hist-read", CPU, SkipHistReadCPU)
EAGER_FIRE = Backend("eager-fire", CPU, EagerFireCPU)


class _LateCount:
    """Bug: the run loop counts each instruction after its handler returns.

    Classic counts an instruction before executing it, so a faulting
    instruction is counted; this loop counts only instructions whose
    handler returned, so ``dynamic_instructions`` and ``by_category``
    come up one short on every fault raised inside a handler (an
    arithmetic trap, an unmapped read) while registers, memory, the
    fault and every budget trip stay classic-identical.  Every run,
    profiled or not, takes it; ``step()`` is untouched, so the
    stepping-parity test (``tests/machine/test_stepping_parity.py``,
    under a profiler too) and the oracle on the ``batch-pure-trap``
    corpus entry must catch it.
    """

    def _run_loop(self) -> None:
        instructions = self.program.instructions
        dispatch = self._dispatch
        stats = self.stats
        while not self.halted:
            if self._dynamic_index >= self.max_instructions:
                raise ExecutionLimitExceeded(
                    f"exceeded {self.max_instructions} dynamic instructions",
                    pc=self.pc,
                )
            try:
                instruction = instructions[self.pc]
            except IndexError:
                raise MachineFault(
                    "pc ran off the end of the program", pc=self.pc
                ) from None
            dispatch[instruction.opcode](instruction)
            stats.count_instruction(_OPCODE_CATEGORY[instruction.opcode])


class LateCountCPU(_LateCount, CPU):
    """The classic CPU on the late-counting run loop."""


class LateCountAmnesicCPU(_LateCount, AmnesicCPU):
    """The amnesic CPU on the late-counting run loop."""


#: The late-counting run loop as a backend the oracle holds to classic.
LATE_COUNT = Backend("late-count", LateCountCPU, LateCountAmnesicCPU)


class LateReplayState(leaves._ReplayState):
    """Bug: the leaf replay bisects one instance too far.

    Every state query should see the machine right *before* the load
    instance it checks; this replay's bisection also admits the instance
    at the load's own index, so it reads the state *after* the load.
    The only difference is what the load itself wrote: its destination
    register, and its own latest value.  A leaf reading that register
    then looks live exactly when the load refills it with the value the
    leaf consumed — and at runtime the swapped load no longer executes,
    so the register still holds whatever clobbered it.
    """

    def _last_before(self, indices: Sequence[int]) -> Optional[int]:
        k = bisect_right(indices, self.now)
        return indices[k - 1] if k else None


@contextlib.contextmanager
def late_replay() -> Iterator[None]:
    """Compile with :class:`LateReplayState` in place of the real replay state."""
    original = leaves._ReplayState
    leaves._ReplayState = LateReplayState
    try:
        yield
    finally:
        leaves._ReplayState = original


@contextlib.contextmanager
def front_end_ignoring_max_height() -> Iterator[None]:
    """Key the compiler's front-end memo without ``max_height``.

    Bug: two compiles of one profile that differ only in the template
    height cap share whichever front end was built first, so the second
    one forms its slices from templates extracted under the other cap.
    A compile from a fresh profile is unaffected, which is exactly what
    the varied-options test (``tests/compiler/test_front_end.py``)
    holds every shared-profile compile to.
    """
    original = amnesic_pass.FRONT_END_FIELDS
    amnesic_pass.FRONT_END_FIELDS = tuple(
        name for name in original if name != "max_height"
    )
    try:
        yield
    finally:
        amnesic_pass.FRONT_END_FIELDS = original


@contextlib.contextmanager
def _regenerated(table, key, value) -> Iterator[None]:
    """Generate fast-path code with ``table[key]`` replaced by *value*."""
    original = table[key]
    table[key] = value
    fastpath.clear_codegen_caches()
    try:
        yield
    finally:
        table[key] = original
        fastpath.clear_codegen_caches()


def stale_load_lru():
    """Generate fast-path code from an LD description without LRU promotion.

    Bug: an L1 load hit no longer moves its line to the MRU end, so the
    next miss in that set evicts the line the load just used.  Values
    and energy of the hit itself are unchanged; the divergence appears
    only at a later eviction (hit/miss counts, levels, charges, and the
    cache contents).  Because every fast-path rendering — per-pc
    functions and fused loops, traced or not, fused regions, and the
    load an RCMP falls back to — is generated from the one description,
    this single edit must break all of them.
    """
    lines = fastpath._FAMILIES["ld"]
    return _regenerated(
        fastpath._FAMILIES,
        "ld",
        tuple(line for line in lines if line != "    _cs.move_to_end(_ln)"),
    )


def late_flush():
    """Generate fused regions and loops whose fault flush stops one short.

    Bug: classic counts an instruction *before* executing it, so when
    element ``completed`` of a fused region or loop faults (a memory
    fault or an arithmetic trap), that element must still be counted.
    This flush counts only the elements that finished — exactly the
    off-by-one a hand-rolled batching loop is most likely to get wrong —
    so ``dynamic_instructions`` and ``by_category`` come up one short on
    any fused fault past the first element while registers, memory, and
    the fault itself stay classic-identical.  Budget trips never reach
    this flush: they land on per-pc functions.  The equivalence oracle
    (on the ``batch-pure-trap`` corpus entry), fuzz campaigns and the
    fastpath-region suite must all catch it.
    """

    def flush_finished(counts, start, completed):
        for offset in range(1, completed):
            counts[start + offset] += 1

    return _regenerated(vars(fastpath), "_partial_flush", flush_finished)


def loop_budget_late():
    """Generate fused loops whose loop-back asks only whether the header fits.

    Bug: the loop must leave its ``while`` before any pass that would
    cross ``max_instructions`` (``_i0 + length > max``), so the budget
    trips at the classic pc inside that pass.  This loop-back exits only
    once the budget is already spent (``_i0 >= max``), so one whole pass
    runs past the budget: registers, memory, counts and the fault pc all
    diverge on a budget that lands inside a loop.  The loop budget sweep
    and the equivalence oracle must both catch it.
    """
    return _regenerated(vars(fastpath), "_LOOP_BACK_EXIT", "_i0 >= _mx")


def deferred_store_producer():
    """Generate traced ST functions that defer their last-store update.

    Bug: a traced store queues its write to the tracker's last-store
    table instead of making it, so no load of the run ever sees it.  A
    load that follows a store to the same address then records no
    producing store, and the profile loses exactly the memory
    dependences slice formation follows through a spill.  Execution and
    every other trace column stay classic-identical; the column-parity
    comparison must catch it.
    """
    store = ("traced", "_ls[_a] = _ix")
    queued = ("traced", "_ls.setdefault(None, []).append((_a, _ix))")
    return _regenerated(
        fastpath._FAMILIES,
        "st",
        tuple(queued if line == store else line for line in fastpath._FAMILIES["st"]),
    )


def split_trace_columns():
    """Give a traced decode's fused loops trace columns of their own.

    Bug: a traced decode asks the tracker again for the columns of each
    pc a fused loop holds, instead of sharing those the pc's per-pc
    function appends to.  Before a pc retires, each ask builds a fresh
    static entry, so a loop pc that retires both ways (per pc when a
    pass no longer fits the budget, fused otherwise) enters the static
    table twice, and the second entry replaces the first with its
    instances.  A run that only ever retires a loop's pcs fused stays
    exact; column parity on budgets that trip inside a loop (the
    ``batch-budget-edge`` corpus entry, mcf at 777 instructions) must
    catch it.
    """

    def unshared(tracer, program):
        return lambda pc: tracer.pc_columns(pc, program.instructions[pc])

    return _regenerated(vars(fastpath), "_trace_columns", unshared)


def unprobed_l2():
    """Generate the RCMP decision without its depth-2 probe count.

    Bug: LLC's generated decision probes L2 on an L1 miss but no longer
    counts the tag probe in ``l2.stats.probes``.  Decisions, values,
    energy and time stay classic-identical; only the probe statistics
    the paper's LLC overhead argument rests on drift.
    """
    probe = (2, "    _l2h.probes += 1")
    return _regenerated(
        vars(fastpath),
        "_DECISION",
        tuple(line for line in fastpath._DECISION if line != probe),
    )


def plan_by_name():
    """Key fast-path decode plans by program name instead of identity.

    Bug: a copy of a program (a deep copy, a pickle round trip) finds
    its original's plan whenever the original is still alive, and runs
    the fused regions, loops and slices rendered from the original's
    instructions.  An unedited copy runs the same code and stays exact;
    an edited one, such as a binary with a poisoned slice, runs code
    that no longer matches its instructions.  The poisoned-copy test in
    ``tests/machine/test_decode_plan.py`` must catch it.
    """
    return _regenerated(vars(fastpath), "_plan_key", lambda program: program.name)


def stale_hist_lru():
    """Generate fused slices without their deferred Hist LRU promotions.

    Bug: a recomputation reads its checkpoint but leaves the entry where
    it was in the history table's LRU order, so the next REC into a full
    table evicts a checkpoint a slice just used.  The value read and
    every counter are unchanged; the entry order diverges at once, and
    under a small Hist the evictions, fallbacks and energy follow.
    """
    return _regenerated(vars(fastpath), "_HIST_PROMOTE", ())


def shape_key_drops_literal():
    """Write int immediates into generated code as literals its shape key leaves out.

    Bug: per-pc functions and fused regions, loops and slices compile
    once per shape, and each binds its immediates as parameters of its
    own, so the shape key records an immediate's name, not its value.
    This edit names an int immediate with a string that equals its name
    in the key but renders as the value's literal, as generated code
    was when it was compiled per program: two programs whose code
    differs only in that immediate share the code rendered for
    whichever decoded first, and the second computes with the first
    one's literal.  A program alone stays exact; the fast-batched replay
    of the committed corpus, whose entries share shapes, and a pair of
    programs whose only differing immediate is a branch's outside any
    loop must catch it.
    """
    immediate = fastpath._immediate

    class Literal(str):
        """An immediate's name that renders as its value."""

        __slots__ = ("literal",)

        def __str__(self):
            return self.literal

    def literal(unit, value):
        name = immediate(unit, value)
        if type(value) is not int:
            return name
        named = Literal(name)
        named.literal = repr(value)
        return named

    return _regenerated(vars(fastpath), "_immediate", literal)


def fork_aliases_state():
    """Resume forked runs in the snapshot's own cache sets, not copies.

    Bug: a run restored from its binary's fork moves lines within the
    snapshot's sets instead of its own, so the next restored run starts
    from the caches where the previous one left them.  The first
    restored run of a binary is exact; from the second on, hits,
    misses, service levels and charges diverge.  ``check_program``
    restores two of the four fast-batched runs of a probabilistic
    binary, so the corpus replay on fast-batched must catch it.
    """
    return _regenerated(vars(fastpath), "_fresh_sets", list)


def fork_ignores_hist_capacity():
    """Resume forked runs with the Hist at the snapshot-taking run's capacity.

    Bug: the restore replays the fork's ``REC`` writes at the capacity of
    the run that logged them, not at the restored run's own, so a run
    with a smaller Hist keeps checkpoints it would have evicted, and one
    with a larger Hist lacks checkpoints it would have kept.  Runs of one
    capacity stay exact, and every oracle run uses the default capacity,
    so the corpus passes; the fork-parity test
    (``tests/machine/test_fork.py``), which varies the capacity between
    the snapshot-taking run and restored ones, must catch it.
    """

    def at_snapshot_capacity(hist, fork):
        own, hist.capacity = hist.capacity, fork.capacity
        try:
            for write in fork.recs:
                hist.record(*write)
        finally:
            hist.capacity = own

    return _regenerated(vars(fastpath), "_replay", at_snapshot_capacity)


@contextlib.contextmanager
def stale_l2_lru() -> Iterator[None]:
    """Run the miss walk without the L2 hit's MRU promotion.

    Bug: a load or store that misses L1 and hits L2 leaves its L2 line
    where it was in the set's LRU order, so the next L2 allocation into
    that set evicts the line just used.  The walk is rebuilt from its own
    source with that one line deleted, and installed for the duration of
    the ``with`` block.  Values are untouched; L2 hits and misses, the
    write-backs and every load's servicing level drift from the next
    eviction on, and with them the golden tables (``fig3``-``fig5``,
    ``table4``, ``table5``) and the profiles the compile-identity golden
    digests for ``ca``, ``is`` and ``mcf``.  Both backends run this one
    walk (fast-batched binds it as ``_smiss``), so corpus replay and the
    backend-equivalence tests pass under it: the walk's reference
    property test (``tests/property/test_miss_walk_property.py``) is
    what catches it at its source.
    """
    original = hierarchy.MemoryHierarchy._service_miss
    source = textwrap.dedent(inspect.getsource(original))
    promotion = "        lines.move_to_end(line)\n"
    if source.count(promotion) != 1:
        raise RuntimeError("the miss walk's L2 hit promotion is not one line")
    namespace = dict(vars(hierarchy))
    exec(compile(source.replace(promotion, ""), "<stale_l2_lru>", "exec"), namespace)
    hierarchy.MemoryHierarchy._service_miss = namespace["_service_miss"]
    try:
        yield
    finally:
        hierarchy.MemoryHierarchy._service_miss = original


__all__ = [
    "EAGER_FIRE",
    "LATE_COUNT",
    "SKIP_HIST_READ",
    "EagerFireCPU",
    "LateCountAmnesicCPU",
    "LateCountCPU",
    "LateReplayState",
    "SkipHistReadCPU",
    "deferred_store_producer",
    "fork_aliases_state",
    "fork_ignores_hist_capacity",
    "front_end_ignoring_max_height",
    "late_flush",
    "late_replay",
    "loop_budget_late",
    "plan_by_name",
    "shape_key_drops_literal",
    "split_trace_columns",
    "stale_hist_lru",
    "stale_l2_lru",
    "stale_load_lru",
    "unprobed_l2",
]
