"""Reaching definitions over :class:`ControlFlowGraph`.

The one dataflow analysis the slice-safety rules read
(:mod:`repro.staticcheck.rules`): which static defs of each
architectural register may be the last writer at a program point.  It
is a per-instruction worklist solver; programs here are tens to a few
hundred instructions, so block-granular bitvectors would be premature.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional

from ..isa.instructions import Instruction
from .cfg import ControlFlowGraph


def register_def(instruction: Instruction) -> Optional[int]:
    """The architectural register index defined, if any (``r0`` never is)."""
    dest = instruction.register_def()
    if dest is None or dest.index == 0:
        return None
    return dest.index


class ReachingDefinitions:
    """Forward may-analysis: defs that can reach each program point.

    ``defs_in[pc]`` maps each register to the static pcs whose def of it
    may be live immediately *before* the instruction at ``pc`` executes;
    a register absent from the map holds only its entry value there.
    """

    def __init__(self, cfg: ControlFlowGraph):
        self.cfg = cfg
        size = len(cfg.program.instructions)
        self.defs_in: List[Dict[int, FrozenSet[int]]] = [{} for _ in range(size)]
        self._solve()

    def _transfer(self, pc: int, state: Dict[int, FrozenSet[int]]) -> Dict[int, FrozenSet[int]]:
        defined = register_def(self.cfg.instruction_at(pc))
        if defined is None:
            return state
        out = dict(state)
        out[defined] = frozenset({pc})
        return out

    @staticmethod
    def _merge(a: Dict[int, FrozenSet[int]], b: Dict[int, FrozenSet[int]]) -> Dict[int, FrozenSet[int]]:
        merged = dict(a)
        for reg, defs in b.items():
            merged[reg] = merged.get(reg, frozenset()) | defs
        return merged

    def _solve(self) -> None:
        size = len(self.cfg.program.instructions)
        if not size:
            return
        worklist = [0]
        initialized = {0}
        while worklist:
            pc = worklist.pop()
            out = self._transfer(pc, self.defs_in[pc])
            for succ in self.cfg.successors[pc]:
                merged = self._merge(self.defs_in[succ], out)
                if merged != self.defs_in[succ] or succ not in initialized:
                    initialized.add(succ)
                    self.defs_in[succ] = merged
                    worklist.append(succ)

    def defs_reaching(self, pc: int, reg: int) -> FrozenSet[int]:
        """Static pcs whose def of *reg* may be live just before *pc*.

        An empty set means only the entry value (never written on any
        path to *pc*) can be observed.
        """
        return self.defs_in[pc].get(reg, frozenset())
