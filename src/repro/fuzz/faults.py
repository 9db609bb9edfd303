"""Deliberately broken schedulers, batchers, replays and fast-path code.

A differential fuzzer that has never caught a bug proves nothing.  These
CPU variants inject known defects so the test suite can assert the whole
loop end-to-end: the generator produces a program that exercises the
broken path, the oracle flags the divergence, and the shrinker reduces
it to a minimal counterexample.  They are shipped in the package (not
buried in tests) so future scheduler/backend work can re-run the same
mutation check against new policies.
"""

from __future__ import annotations

import contextlib
from bisect import bisect_right
from typing import Iterator, Optional, Sequence

from ..compiler import leaves
from ..core.amnesic_cpu import AmnesicCPU
from ..core.backend import Backend
from ..core.hist import HistoryTable
from ..machine import fastpath
from ..machine.cpu import CPU
from ..machine.fastpath import BatchedExecutionMixin


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


class _LateFlushMixin(BatchedExecutionMixin):
    """Bug: a fused region's count flush stops short across a fault.

    Classic counts an instruction *before* executing it, so when element
    ``completed`` of a fused region faults, that element must still be
    counted.  This batcher flushes only the elements that finished —
    exactly the off-by-one a hand-rolled batching loop is most likely to
    get wrong — so ``dynamic_instructions`` and ``by_category`` come up
    one short on any mid-region fault while registers, memory, and the
    fault itself stay classic-identical.  The equivalence oracle and the
    fastpath-region suite must both catch it.
    """

    @staticmethod
    def _region_partial_flush(counts, start, completed):
        for offset in range(1, completed):
            counts[start + offset] += 1


class LateFlushBatchedCPU(_LateFlushMixin, CPU):
    """The broken batcher over classic semantics."""


class LateFlushBatchedAmnesicCPU(_LateFlushMixin, AmnesicCPU):
    """The broken batcher over amnesic binaries."""


#: The broken CPUs as backends the oracle holds to classic.
SKIP_HIST_READ = Backend("skip-hist-read", CPU, SkipHistReadCPU)
EAGER_FIRE = Backend("eager-fire", CPU, EagerFireCPU)
LATE_FLUSH = Backend("late-flush", LateFlushBatchedCPU, LateFlushBatchedAmnesicCPU)


class LateReplayScanner(leaves._ReplayScanner):
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
    """Compile with :class:`LateReplayScanner` in place of the real replay."""
    original = leaves._ReplayScanner
    leaves._ReplayScanner = LateReplayScanner
    try:
        yield
    finally:
        leaves._ReplayScanner = original


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
    functions, traced per-pc functions, fused regions, and the load an
    RCMP falls back to — is generated from the one description, this
    single edit must break all of them.
    """
    lines = fastpath._FAMILIES["ld"]
    return _regenerated(
        fastpath._FAMILIES,
        "ld",
        tuple(line for line in lines if line != "    _cs.move_to_end(_ln)"),
    )


def unprobed_l2():
    """Generate the L2-probing RCMP mechanism without its L2 probe count.

    Bug: LLC's generated decision probes L2 on an L1 miss but no longer
    counts the tag probe in ``l2.stats.probes``.  Decisions, values,
    energy and time stay classic-identical; only the probe statistics
    the paper's LLC overhead argument rests on drift.
    """
    decide, residence, probe = fastpath._MECHANISMS["l2"]
    return _regenerated(
        fastpath._MECHANISMS,
        "l2",
        (
            tuple(line for line in decide if line.strip() != "_l2h.probes += 1"),
            residence,
            probe,
        ),
    )


def stale_hist_lru():
    """Generate fused slices whose inline Hist read skips the LRU promotion.

    Bug: a recomputation reads its checkpoint but leaves the entry where
    it was in the history table's LRU order, so the next REC into a full
    table evicts a checkpoint a slice just used.  The value read and
    every counter are unchanged; the entry order diverges at once, and
    under a small Hist the evictions, fallbacks and energy follow.
    """
    return _regenerated(
        vars(fastpath),
        "_HIST_READ",
        tuple(
            line
            for line in fastpath._HIST_READ
            if not line.startswith("_hent.move_to_end")
        ),
    )


__all__ = [
    "EAGER_FIRE",
    "LATE_FLUSH",
    "SKIP_HIST_READ",
    "EagerFireCPU",
    "LateFlushBatchedAmnesicCPU",
    "LateFlushBatchedCPU",
    "LateReplayScanner",
    "SkipHistReadCPU",
    "late_replay",
    "stale_hist_lru",
    "stale_load_lru",
    "unprobed_l2",
]
