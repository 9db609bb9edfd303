"""Leaf-input liveness and replay validation of slice templates.

Both are answered at the dynamic instances of the candidate loads, over
one view of the machine state right before each instance
(:class:`_ReplayState`), by two replays:

1. **Liveness** (paper section 2.2), decided once over the full
   templates by :func:`collect_liveness`.  A leaf's register input is
   *live* if, at every observed RCMP point, the architectural register
   still holds the value the leaf consumed — then no history checkpoint
   is needed.  Otherwise the value is "lost, i.e., overwritten at the
   time of recomputation": a non-recomputable input that a REC must
   checkpoint into Hist.  The same replay decides which dataflow edges
   formation may grow through (:class:`OperandFacts`).

2. **Replay validation** — the reproduction's safety gate, over the cut
   trees formation chose (:func:`classify_and_validate`).  The history
   table keeps one entry per leaf holding the operands of the leaf's
   *latest* execution, so recomputation is correct only for loads whose
   value equals the template evaluated over those latest operands.  We
   replay exactly those semantics: at each dynamic load instance,
   evaluate the cut tree over the latest operand values, and reject any
   candidate with a single mismatch.  (Instances where a checkpoint does
   not exist yet are fine: the runtime scheduler falls back to the plain
   load in that case, paper section 3.5.)  Validation only evaluates;
   each leaf input's kind (LIVE_REG or HIST) is the liveness answer of
   replay 1, the same answer formation priced it with.

The replay never walks the trace.  The state right before dynamic
instruction *t* is a set of last-instance-before-*t* queries over the
indexes the dependence trace builds while tracing: register *r* holds
the result of its last value-writing instruction (compute op or load)
before *t*, a pc's latest operands are those its last instance before
*t* read (each the result of that operand's producer), and a pc's
latest value is the result of its last instance before *t*.  Each is a
bisection or two, so the work scales with the candidate-load instances,
not with the trace length.  An instance's operands are derived once and
kept in a map the caller may share between replays of one trace.

The replay simulates exactly the semantics the hardware implements, so
a template that validates here and whose leaves keep checkpointing at
runtime recomputes bit-identical values.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..errors import ReproError
from ..isa.opcodes import Opcode
from ..isa.semantics import evaluate
from ..trace.dependence import DependenceTracker, last_before
from .rslice import LeafInputKind, TemplateNode

Value = Union[int, float]

#: ``(load_pc, producer_pc, position)``: one operand of one slice node.
OperandKey = Tuple[int, int, int]

#: Dynamic instance -> the operand values it read.
InstanceOperands = Dict[int, Tuple[Value, ...]]


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


class _MissingCheckpoint(ReproError):
    """The template references a leaf that has not executed yet."""


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

    live: Dict[OperandKey, bool]
    edge_consistent: Dict[OperandKey, bool]

    def is_live(self, load_pc: int, producer_pc: int, position: int) -> bool:
        return self.live.get((load_pc, producer_pc, position), False)

    def can_expand(self, load_pc: int, producer_pc: int, position: int) -> bool:
        return self.edge_consistent.get((load_pc, producer_pc, position), True)


class _ReplayState:
    """The machine state right before dynamic instruction ``now``."""

    def __init__(
        self, tracker: DependenceTracker, operands: InstanceOperands
    ) -> None:
        self.tracker = tracker
        self.operands = operands
        self.now = 0

    def visit(self, load_pc: int) -> Iterator[int]:
        """Stand right before each instance of load *load_pc*, in order."""
        info = self.tracker.pc_info(load_pc)
        if info is None or not info.is_load:
            return
        for self.now in info.instances:
            yield self.now

    def _last_before(self, indices: Sequence[int]) -> Optional[int]:
        """The last of the ascending dynamic *indices* before ``now``."""
        return last_before(indices, self.now)

    def register(self, reg: int) -> Optional[Value]:
        """Architectural register *reg* (link-register writes not modelled)."""
        writer = self._last_before(self.tracker.value_writers(reg))
        return 0 if writer is None else self.tracker.result(writer)

    def latest(self, pc: int) -> Optional[int]:
        """The latest instance of load or compute op *pc*, if any."""
        info = self.tracker.pc_info(pc)
        if info is None or not (
            info.is_load or info.is_compute and info.dest is not None
        ):
            return None
        return self._last_before(info.instances)

    def latest_operands(self, pc: int) -> Optional[Tuple[Value, ...]]:
        """Operands of the latest execution of compute op *pc*, if any."""
        latest = self.latest(pc)
        if latest is None:
            return None
        values = self.operands.get(latest)
        if values is None:
            values = self.operands[latest] = self.tracker.operands(latest)
        return values

    def latest_value(self, pc: int) -> Optional[Value]:
        """Value the latest execution of *pc* produced, if any."""
        latest = self.latest(pc)
        return None if latest is None else self.tracker.result(latest)


def _holds(flags: Dict[OperandKey, bool], key: OperandKey, holds: bool) -> None:
    """AND *holds* into the flag at *key* (a new key starts true)."""
    flags[key] = flags.get(key, True) and holds


def collect_liveness(
    candidates: Dict[int, TemplateNode],
    tracker: DependenceTracker,
    operands: Optional[InstanceOperands] = None,
) -> OperandFacts:
    """Decide liveness and edge consistency over *full* templates.

    Both facts are independent of where the slice is eventually cut, so
    formation can price leaf inputs and gate expansion before the cut is
    chosen, and validation classifies the cut trees' leaves with the
    same answers.  *operands* caches each instance's operand values
    across replays of *tracker*.

    Shallow consistency of an edge parent->child asks: would cutting *at
    the child* (re-executing the child once from its own latest
    checkpointed operands) reproduce the value the parent's latest
    execution consumed?  The child's latest execution read those same
    operands, so the result it recorded is that value.  A cut tree is
    correct iff every edge above its frontier is shallow-consistent and
    the frontier leaves read their own latest operands — which is
    exactly what Hist supplies — so formation may grow through an edge
    iff this flag holds.
    """
    state = _ReplayState(tracker, {} if operands is None else operands)
    live: Dict[OperandKey, bool] = {}
    consistent: Dict[OperandKey, bool] = {}
    for load_pc, tree in candidates.items():
        for _ in state.visit(load_pc):
            for node in tree.walk():
                if node.is_checkpoint_load:
                    consumed = [state.latest_value(node.pc) for _ in node.children]
                else:
                    latest = state.latest_operands(node.pc)
                    if latest is None:
                        continue
                    for leaf_input in node.leaf_inputs:
                        if leaf_input.reg_index is not None:
                            _holds(
                                live,
                                (load_pc, node.pc, leaf_input.position),
                                state.register(leaf_input.reg_index)
                                == latest[leaf_input.position],
                            )
                    consumed = [latest[position] for position in node.child_positions]
                for child, position, reg, value in zip(
                    node.children, node.child_positions, node.child_regs, consumed
                ):
                    if value is None:
                        continue
                    key = (load_pc, node.pc, position)
                    if reg is not None:
                        _holds(live, key, state.register(reg) == value)
                    shallow = state.latest_value(child.pc)
                    if shallow is not None:
                        _holds(consistent, key, shallow == value)
    return OperandFacts(
        live={key: flag for key, flag in live.items() if flag},
        edge_consistent=consistent,
    )


def classify_and_validate(
    candidates: Dict[int, TemplateNode],
    tracker: DependenceTracker,
    facts: OperandFacts,
    operands: Optional[InstanceOperands] = None,
) -> Dict[int, ValidationReport]:
    """Validate *candidates* at every load instance, then classify leaves.

    ``candidates`` maps a static load pc to its formed (cut) tree.  A
    valid tree's register leaf inputs are set **in place** to LIVE_REG
    or HIST by *facts*, the liveness :func:`collect_liveness` decided;
    the returned reports carry validity verdicts.
    """
    state = _ReplayState(tracker, {} if operands is None else operands)
    reports: Dict[int, ValidationReport] = {}
    for load_pc, tree in candidates.items():
        report = reports[load_pc] = ValidationReport(
            load_pc=load_pc,
            tree=tree,
            valid=True,
            checkpoint_load_pcs=tuple(
                sorted({node.pc for node in tree.walk() if node.is_checkpoint_load})
            ),
        )
        # A slice whose chain loops back through its own load can never
        # checkpoint itself once the load is swapped.
        report.valid = load_pc not in report.checkpoint_load_pcs
        for now in state.visit(load_pc):
            if not report.valid:
                break
            report.instances_checked += 1
            try:
                matches = _evaluate(state, tree) == tracker.result(now)
            except _MissingCheckpoint:
                report.missing_checkpoints += 1
                continue
            except ReproError:
                matches = False
            if not matches:
                report.mismatches += 1
                report.valid = False
        if not report.instances_checked:
            report.valid = False
        if report.valid:
            _classify(load_pc, tree, facts)
    return reports


def _evaluate(state: _ReplayState, node: TemplateNode) -> Value:
    """*node* evaluated under Hist semantics: leaves read latest operands."""
    if node.is_checkpoint_load:
        value = state.latest_value(node.pc)
        if value is None:
            raise _MissingCheckpoint(str(node.pc))
        return value
    values: List[Optional[Value]] = [None] * (
        len(node.leaf_inputs) + len(node.children)
    )
    latest: Optional[Tuple[Value, ...]] = None
    for leaf_input in node.leaf_inputs:
        if leaf_input.reg_index is None:
            values[leaf_input.position] = leaf_input.const_value
            continue
        if latest is None:
            latest = state.latest_operands(node.pc)
            if latest is None:
                raise _MissingCheckpoint(str(node.pc))
        values[leaf_input.position] = latest[leaf_input.position]
    for child, position in zip(node.children, node.child_positions):
        values[position] = _evaluate(state, child)
    if node.opcode is Opcode.LI:
        return values[0]
    return evaluate(node.opcode, values)


def _classify(load_pc: int, tree: TemplateNode, facts: OperandFacts) -> None:
    """Set each register leaf input of *tree* to LIVE_REG or HIST."""
    for node in tree.walk():
        if node.is_checkpoint_load:
            continue
        for leaf_input in node.leaf_inputs:
            if leaf_input.reg_index is not None:
                live = facts.is_live(load_pc, node.pc, leaf_input.position)
                leaf_input.kind = (
                    LeafInputKind.LIVE_REG if live else LeafInputKind.HIST
                )
