"""Dead-store analysis: the paper's store-elision opportunity.

Paper section 1: "For each load replaced with an RSlice, the
corresponding store (to the same memory address) can become redundant if
no other load (from the same address) depends on it.  Therefore, amnesic
execution can also filter out energy-hungry stores, and reduce the
pressure on memory capacity by shrinking the memory footprint."

This module quantifies that opportunity as an *analysis* (the stores are
not actually removed: the runtime's fallback path — a missing Hist
checkpoint, an SFile overflow, a policy that skips — still performs the
real load, which must observe the stored value).  A store instance is
*elidable under always-firing recomputation* iff every load that ever
consumes one of its values is a swapped load; the reported savings are
therefore an upper bound, exactly the spirit in which the paper raises
the opportunity.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Set, Tuple

from ..trace.dependence import DependenceTracker


@dataclasses.dataclass
class StoreSiteReport:
    """Consumption summary of one static store."""

    store_pc: int
    dynamic_instances: int
    #: Static load pcs that ever read a value this store wrote.
    consumer_load_pcs: Tuple[int, ...]
    #: Instances whose value was overwritten (or the run ended) unread.
    never_read_instances: int

    def is_elidable(self, swapped_load_pcs: Set[int]) -> bool:
        """Redundant if recomputation covers every consumer."""
        return all(pc in swapped_load_pcs for pc in self.consumer_load_pcs)


@dataclasses.dataclass
class DeadStoreAnalysis:
    """Whole-program store-elision opportunity."""

    sites: List[StoreSiteReport]
    swapped_load_pcs: Set[int]
    total_dynamic_stores: int

    @property
    def elidable_sites(self) -> List[StoreSiteReport]:
        return [s for s in self.sites if s.is_elidable(self.swapped_load_pcs)]

    @property
    def elidable_dynamic_stores(self) -> int:
        return sum(site.dynamic_instances for site in self.elidable_sites)

    @property
    def elidable_fraction(self) -> float:
        """Fraction of dynamic stores that become redundant (footprint
        pressure relief, paper section 1)."""
        if not self.total_dynamic_stores:
            return 0.0
        return self.elidable_dynamic_stores / self.total_dynamic_stores


def analyse_dead_stores(
    tracker: DependenceTracker,
    swapped_load_pcs: Iterable[int],
) -> DeadStoreAnalysis:
    """Scan a classic trace for stores whose consumers are all swapped.

    Maintains, per address, the store instance currently owning the
    value; loads mark the owner consumed by their static pc, overwrites
    retire the previous owner.
    """
    consumers: Dict[int, Set[int]] = {}  # store pc -> consuming load pcs
    instance_counts: Dict[int, int] = {}
    never_read: Dict[int, int] = {}
    #: address -> (store pc, was this instance read at least once)
    owner: Dict[int, Tuple[int, bool]] = {}

    def retire(address: int) -> None:
        previous = owner.get(address)
        if previous is not None and not previous[1]:
            never_read[previous[0]] = never_read.get(previous[0], 0) + 1

    for _, info, address, _, _ in tracker.memory_accesses():
        if info.is_store:
            retire(address)
            owner[address] = (info.pc, False)
            consumers.setdefault(info.pc, set())
            instance_counts[info.pc] = instance_counts.get(info.pc, 0) + 1
            never_read.setdefault(info.pc, 0)
        elif info.is_load:
            current = owner.get(address)
            if current is not None:
                store_pc, _ = current
                owner[address] = (store_pc, True)
                consumers[store_pc].add(info.pc)
    for address in list(owner):
        retire(address)

    sites = [
        StoreSiteReport(
            store_pc=store_pc,
            dynamic_instances=instance_counts[store_pc],
            consumer_load_pcs=tuple(sorted(consumers[store_pc])),
            never_read_instances=never_read.get(store_pc, 0),
        )
        for store_pc in sorted(instance_counts)
    ]
    return DeadStoreAnalysis(
        sites=sites,
        swapped_load_pcs=set(swapped_load_pcs),
        total_dynamic_stores=sum(instance_counts.values()),
    )


def analysis_for_compilation(compilation) -> DeadStoreAnalysis:
    """Convenience wrapper over a :class:`CompilationResult`."""
    return analyse_dead_stores(
        compilation.profile.dependence, compilation.swapped_load_pcs
    )
