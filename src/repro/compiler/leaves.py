"""Leaf-input classification and replay validation of slice templates.

Two jobs, both answered at the dynamic instances of the candidate loads:

1. **Liveness classification** (paper section 2.2).  A leaf's register
   input is *live* if, at every observed RCMP point, the architectural
   register still holds the value the leaf consumed — then no history
   checkpoint is needed.  Otherwise the value is "lost, i.e.,
   overwritten at the time of recomputation": a non-recomputable input
   that a REC must checkpoint into Hist.

2. **Replay validation** — the reproduction's safety gate.  The history
   table keeps one entry per leaf holding the operands of the leaf's
   *latest* execution, so recomputation is correct only for loads whose
   value equals the template evaluated over those latest operands.  We
   replay exactly those semantics: at each dynamic load instance,
   evaluate the candidate template over the latest operand values and
   the architectural register file, and reject any candidate with a
   single mismatch.  (Instances where a checkpoint does not exist yet
   are fine: the runtime scheduler falls back to the plain load in that
   case, paper section 3.5.)

The replay never walks the trace.  The state right before dynamic
instruction *t* is a set of last-instance-before-*t* queries over the
indexes the dependence trace builds while tracing: register *r* holds
the result of its last value-writing instruction (compute op or load)
before *t*, a pc's latest operands are those of its last instance
before *t*, and a load's latest value is the result of its last
instance before *t*.  Each is one bisection, so the work scales with
the candidate-load instances, not with the trace length.

The replay simulates exactly the semantics the hardware implements, so
a template that validates here and whose leaves keep checkpointing at
runtime recomputes bit-identical values.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ReproError
from ..isa.opcodes import Opcode
from ..isa.semantics import evaluate
from ..trace.dependence import DependenceTracker, last_before
from .rslice import LeafInputKind, TemplateNode

Value = Union[int, float]


@dataclasses.dataclass
class ValidationReport:
    """Outcome of classifying/validating one candidate template."""

    load_pc: int
    tree: TemplateNode
    valid: bool
    instances_checked: int = 0
    mismatches: int = 0
    missing_checkpoints: int = 0
    checkpoint_load_pcs: Tuple[int, ...] = ()

    @property
    def always_recomputable(self) -> bool:
        """True when every observed instance could have been recomputed."""
        return self.valid and self.missing_checkpoints == 0


class _MissingCheckpoint(ReproError):
    """The template references a leaf that has not executed yet."""


#: Sentinel: a shallow re-execution had no checkpoint to work from.
_MISSING = object()


def classify_and_validate(
    candidates: Dict[int, TemplateNode], tracker: DependenceTracker
) -> Dict[int, ValidationReport]:
    """Classify leaf inputs and validate *candidates* at every load instance.

    ``candidates`` maps a static load pc to its formed template tree.
    Leaf-input kinds are updated **in place** (HIST relaxed to LIVE_REG
    where liveness holds); the returned reports carry validity verdicts.
    """
    scanner = _ReplayScanner(candidates, tracker)
    return scanner.run()


@dataclasses.dataclass
class OperandFacts:
    """Per-operand facts formation needs, gathered over full templates.

    ``live`` — ``(load_pc, producer_pc, position)`` flags: the register
    still holds the consumed value at every observed RCMP point.

    ``edge_consistent`` — the same keys, for severable dataflow edges:
    re-evaluating the child subtree from latest checkpoints reproduces
    the operand value the parent's latest execution consumed, at every
    observed RCMP point.  Expanding an inconsistent edge (e.g. chasing
    a loop counter past a stale refill) would always fail validation,
    so formation refuses to grow through it.
    """

    live: Dict[Tuple[int, int, int], bool]
    edge_consistent: Dict[Tuple[int, int, int], bool]

    def is_live(self, load_pc: int, producer_pc: int, position: int) -> bool:
        return self.live.get((load_pc, producer_pc, position), False)

    def can_expand(self, load_pc: int, producer_pc: int, position: int) -> bool:
        return self.edge_consistent.get((load_pc, producer_pc, position), True)


def collect_liveness(
    candidates: Dict[int, TemplateNode], tracker: DependenceTracker
) -> OperandFacts:
    """Collect liveness and edge-consistency flags over *full* templates.

    Both facts are independent of where the slice is eventually cut, so
    formation can price leaf inputs and gate expansion before the cut is
    chosen.  No validity verdict is produced here — the final (cut)
    trees are validated separately.
    """
    scanner = _ReplayScanner(candidates, tracker, collect_only=True)
    scanner.run()
    return OperandFacts(
        live={key: flag for key, flag in scanner.live_ok.items() if flag},
        edge_consistent=dict(scanner.edge_ok),
    )


class _ReplayScanner:
    """Replay of Hist/liveness semantics at each candidate-load instance."""

    def __init__(
        self,
        candidates: Dict[int, TemplateNode],
        tracker: DependenceTracker,
        collect_only: bool = False,
    ):
        self.candidates = candidates
        self.tracker = tracker
        self.collect_only = collect_only
        #: Dynamic index of the load instance being replayed; every state
        #: query answers "right before instruction ``now``".
        self.now = 0
        # (load_pc, producer_pc, position) -> still-live flag.  Keyed by
        # static pc, so duplicated nodes (diamond dataflow) share flags.
        self.live_ok: Dict[Tuple[int, int, int], bool] = {}
        # Same keys: expanding the edge reproduces the consumed value.
        self.edge_ok: Dict[Tuple[int, int, int], bool] = {}
        self.reports: Dict[int, ValidationReport] = {
            pc: ValidationReport(
                load_pc=pc,
                tree=tree,
                valid=True,
                checkpoint_load_pcs=tuple(
                    sorted(
                        {
                            node.pc
                            for node in tree.walk()
                            if node.is_checkpoint_load
                        }
                    )
                ),
            )
            for pc, tree in candidates.items()
        }
        # A slice whose chain loops back through its own load can never
        # checkpoint itself once the load is swapped.
        for pc, report in self.reports.items():
            if pc in report.checkpoint_load_pcs:
                report.valid = False

    # ------------------------------------------------------------------
    # The replay.
    # ------------------------------------------------------------------
    def run(self) -> Dict[int, ValidationReport]:
        for load_pc in self.candidates:
            info = self.tracker.pc_info(load_pc)
            if info is None or not info.is_load:
                continue
            report = self.reports[load_pc]
            for now in info.instances:
                if not self.collect_only and not report.valid:
                    break
                self.now = now
                self._check_instance(load_pc, self.tracker.result(now))
        self._finalise_kinds()
        return self.reports

    # ------------------------------------------------------------------
    # Machine state right before instruction ``now``.
    # ------------------------------------------------------------------
    def _last_before(self, indices: Sequence[int]) -> Optional[int]:
        """The last of the ascending dynamic *indices* before ``now``."""
        return last_before(indices, self.now)

    def _register(self, reg: int) -> Optional[Value]:
        """Architectural register *reg* (link-register writes not modelled)."""
        writer = self._last_before(self.tracker.value_writers(reg))
        return 0 if writer is None else self.tracker.result(writer)

    def _latest_operands(self, pc: int) -> Optional[Tuple[Value, ...]]:
        """Operands of the latest execution of compute op *pc*, if any."""
        info = self.tracker.pc_info(pc)
        if info is None or not info.is_compute or info.dest is None:
            return None
        latest = self._last_before(info.instances)
        return None if latest is None else self.tracker.operands(latest)

    def _latest_load_value(self, pc: int) -> Optional[Value]:
        """Value the latest execution of load *pc* returned, if any."""
        info = self.tracker.pc_info(pc)
        if info is None or not info.is_load:
            return None
        latest = self._last_before(info.instances)
        return None if latest is None else self.tracker.result(latest)

    def _check_instance(self, load_pc: int, loaded: Optional[Value]) -> None:
        if self.collect_only:
            self._collect_instance(load_pc)
            return
        report = self.reports[load_pc]
        report.instances_checked += 1
        try:
            recomputed = self._evaluate(load_pc, self.candidates[load_pc])
        except _MissingCheckpoint:
            report.missing_checkpoints += 1
            return
        except ReproError:
            report.mismatches += 1
            report.valid = False
            return
        if recomputed != loaded:
            report.mismatches += 1
            report.valid = False

    # ------------------------------------------------------------------
    # Collect mode: flat per-node fact gathering (no recursion).
    # ------------------------------------------------------------------
    def _collect_instance(self, load_pc: int) -> None:
        """Gather liveness and shallow edge-consistency at one RCMP point.

        Shallow consistency of an edge parent->child asks: would cutting
        *at the child* (re-executing the child once from its own latest
        checkpointed operands) reproduce the value the parent's latest
        execution consumed?  A cut tree is correct iff every edge above
        its frontier is shallow-consistent and the frontier leaves read
        their own latest operands — which is exactly what Hist supplies —
        so formation may grow through an edge iff this flag holds.
        """
        for node in self.candidates[load_pc].walk():
            latest = self._latest_operands(node.pc)
            if not node.is_checkpoint_load and latest is not None:
                for leaf_input in node.leaf_inputs:
                    if leaf_input.reg_index is not None:
                        self._note_liveness(
                            load_pc, node, leaf_input, latest[leaf_input.position]
                        )
            for child, position, reg in zip(
                node.children, node.child_positions, node.child_regs
            ):
                key = (load_pc, node.pc, position)
                if node.is_checkpoint_load:
                    consumed = self._latest_load_value(node.pc)
                else:
                    consumed = latest[position] if latest is not None else None
                if consumed is None:
                    continue
                if reg is not None:
                    alive = self._register(reg) == consumed
                    self.live_ok[key] = self.live_ok.get(key, True) and alive
                shallow = self._shallow_value(child)
                if shallow is _MISSING:
                    continue
                consistent = shallow == consumed
                self.edge_ok[key] = self.edge_ok.get(key, True) and consistent

    def _shallow_value(self, node: TemplateNode):
        """Re-execute *node* once from its own latest checkpointed operands."""
        if node.is_checkpoint_load:
            value = self._latest_load_value(node.pc)
            return _MISSING if value is None else value
        latest = self._latest_operands(node.pc)
        if latest is None:
            return _MISSING
        if node.opcode is Opcode.LI:
            return latest[0]
        try:
            return evaluate(node.opcode, latest)
        except ReproError:
            return _MISSING

    # ------------------------------------------------------------------
    # Template evaluation under Hist semantics (validation mode).
    # ------------------------------------------------------------------
    def _evaluate(self, load_pc: int, node: TemplateNode) -> Value:
        if node.is_checkpoint_load:
            value = self._latest_load_value(node.pc)
            if value is None:
                raise _MissingCheckpoint(str(node.pc))
            return value
        arity = len(node.leaf_inputs) + len(node.children)
        operands: List[Optional[Value]] = [None] * arity
        for leaf_input in node.leaf_inputs:
            if leaf_input.reg_index is None:
                value = leaf_input.const_value
            else:
                latest = self._latest_operands(node.pc)
                if latest is None:
                    raise _MissingCheckpoint(str(node.pc))
                value = latest[leaf_input.position]
                self._note_liveness(load_pc, node, leaf_input, value)
            operands[leaf_input.position] = value
        for child, position in zip(node.children, node.child_positions):
            operands[position] = self._evaluate(load_pc, child)
        if node.opcode is Opcode.LI:
            return operands[0]
        return evaluate(node.opcode, operands)

    def _note_liveness(self, load_pc: int, node: TemplateNode, leaf_input, value) -> None:
        key = (load_pc, node.pc, leaf_input.position)
        assert leaf_input.reg_index is not None
        alive = self._register(leaf_input.reg_index) == value
        self.live_ok[key] = self.live_ok.get(key, True) and alive

    # ------------------------------------------------------------------
    # Final classification.
    # ------------------------------------------------------------------
    def _finalise_kinds(self) -> None:
        if self.collect_only:
            return
        for load_pc, tree in self.candidates.items():
            report = self.reports[load_pc]
            if not report.valid or not report.instances_checked:
                report.valid = False
                continue
            for node in tree.walk():
                if node.is_checkpoint_load:
                    continue
                for leaf_input in node.leaf_inputs:
                    if leaf_input.reg_index is None:
                        continue
                    key = (load_pc, node.pc, leaf_input.position)
                    if self.live_ok.get(key, False):
                        leaf_input.kind = LeafInputKind.LIVE_REG
                    else:
                        leaf_input.kind = LeafInputKind.HIST
