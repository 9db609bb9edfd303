"""Slice formation: choosing how far each slice tree grows.

The extractor (:mod:`repro.compiler.producers`) delivers the *full*
producer tree up to the height/node caps.  Formation decides, per
dataflow edge, whether to keep expanding (the operand is recomputed by a
child subtree through the SFile) or to cut (the operand becomes a leaf
input retrieved from the history table, a live register, or a
constant).  Two modes are implemented:

* ``greedy`` — the paper's algorithm (section 3.1.1): let the slice
  "grow level by level, as long as the cumulative cost of recomputation
  along RSlice(v) being constructed remains below E_ld".  Deeper levels
  re-derive values from registers instead of consuming history-table
  checkpoints, so slices grow as long as the probabilistic load cost
  affords them.  This is the default and reproduces the paper's
  Figure 6 slice-length distributions.
* ``optimal`` — a bottom-up dynamic program picking the
  minimum-estimated-``E_rc`` cut.  Because a history read (priced like
  an L1-D access) is cheaper than re-executing more than a couple of
  instructions, the optimum hugs very short slices; the difference
  against ``greedy`` is quantified by the formation-mode ablation
  benchmark.

Both modes price every node by one rule (``_SliceFormer._priced``): its
re-execution, a history read per checkpointed leaf input, and at most
one REC amortised per load — the rule selection prices by
(:meth:`~repro.compiler.cost.CostContext.rec_amortization`).  Leaf
inputs are priced with the liveness that
:func:`~repro.compiler.leaves.collect_liveness` decided, the answer
validation later classifies them by: an input classified live costs
neither a history read nor a REC.  So a formed tree's estimate plus
the RCMP/RTN overhead is its selection cost.

Checkpoint-load nodes collapse on expansion: replacing a load along the
chain by its own producer slice splices the producer subtree directly,
so "loads and stores cannot be present as intermediate nodes" holds by
construction.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from .cost import CostContext
from .leaves import OperandFacts
from .rslice import LeafInput, TemplateNode

FORMATION_GREEDY = "greedy"
FORMATION_OPTIMAL = "optimal"

#: Fraction of E_ld that greedy growth may consume, leaving headroom for
#: the RCMP/RTN overhead selection adds to formation's estimate.
GREEDY_BUDGET_MARGIN = 0.8

#: A severed child edge: ``(position, register)``.
_Edge = Tuple[int, int]
#: A child kept below its parent: ``(energy, subtree, position, register)``.
_Kept = Tuple[float, TemplateNode, int, int]


@dataclasses.dataclass
class FormationResult:
    """The chosen tree and its estimated traversal energy."""

    tree: TemplateNode
    estimated_energy_nj: float


def form_slice_tree(
    template: TemplateNode,
    context: CostContext,
    load_pc: int,
    liveness: Optional[OperandFacts] = None,
    mode: str = FORMATION_GREEDY,
    budget_nj: Optional[float] = None,
) -> FormationResult:
    """Choose the cut of *template* for the load at *load_pc*.

    ``budget_nj`` is the probabilistic ``E_ld`` that bounds greedy
    growth; it defaults to the profiler's estimate for *load_pc*, scaled
    back by a safety margin: a slice grown right up to ``E_ld`` would be
    rejected by the selection step once the RCMP/RTN overhead of a
    traversal is added on top, so growth keeps headroom for it.
    """
    if budget_nj is None:
        budget_nj = GREEDY_BUDGET_MARGIN * context.estimated_load_cost(
            load_pc
        ).energy_nj
    former = _SliceFormer(context, load_pc, liveness or OperandFacts({}, {}))
    if mode == FORMATION_OPTIMAL:
        energy, tree = former.best(template)
        return FormationResult(tree=tree, estimated_energy_nj=energy)
    if mode == FORMATION_GREEDY:
        return former.greedy(template, budget_nj)
    raise ValueError(f"unknown formation mode {mode!r}")


class _SliceFormer:
    """Cut selection over one template tree."""

    def __init__(
        self, context: CostContext, load_pc: int, facts: OperandFacts
    ) -> None:
        self.context = context
        self.load_pc = load_pc
        self.facts = facts
        self._hist_read_nj = context.hist_read_cost().energy_nj
        self._rec_nj = context.model.rec_cost().energy_nj
        self._load_count = max(context.pc_execution_counts.get(load_pc, 1), 1)

    # ------------------------------------------------------------------
    # Pricing: one rule for every cut.
    # ------------------------------------------------------------------
    def _is_live(self, pc: int, position: int) -> bool:
        return self.facts.is_live(self.load_pc, pc, position)

    def _can_expand(self, pc: int, position: int) -> bool:
        return self.facts.can_expand(self.load_pc, pc, position)

    def _leaf_input_nj(self, node: TemplateNode, position: int,
                       is_register: bool) -> float:
        """Cost of supplying one leaf input at recompute time."""
        if not is_register:
            return 0.0  # immediates are free
        if not node.is_checkpoint_load and self._is_live(node.pc, position):
            return 0.0  # read straight from the architectural register
        return self._hist_read_nj

    def _priced(
        self,
        node: TemplateNode,
        cut_edges: List[_Edge],
        kept: List[_Kept],
    ) -> Tuple[float, TemplateNode]:
        """*node* with its *cut_edges* severed and its *kept* children.

        ``cut_edges`` are ``(position, reg)`` pairs whose operands join
        the node's own leaf inputs; ``kept`` are ``(energy, subtree,
        position, reg)`` children already formed.  The node costs its
        re-execution and its leaf inputs, plus one REC amortised per
        load if any input needs a checkpoint — the rule
        :meth:`CostContext.rec_amortization` prices selection by.
        """
        leaf_inputs = [dataclasses.replace(li) for li in node.leaf_inputs]
        for position, reg in cut_edges:
            leaf_inputs.append(LeafInput.register(position, reg))
        energy = self.context.node_cost(node).energy_nj
        needs_rec = False
        for leaf_input in leaf_inputs:
            is_register = leaf_input.reg_index is not None
            cost = self._leaf_input_nj(node, leaf_input.position, is_register)
            energy += cost
            needs_rec = needs_rec or cost > 0.0
        if needs_rec:
            count = self.context.pc_execution_counts.get(node.pc, 1)
            energy += self._rec_nj * (count / self._load_count)
        leaf_inputs.sort(key=lambda li: li.position)
        tree = TemplateNode(
            pc=node.pc,
            opcode=node.opcode,
            leaf_inputs=leaf_inputs,
            is_checkpoint_load=node.is_checkpoint_load,
        )
        for child_energy, child, position, reg in kept:
            energy += child_energy
            tree.children.append(child)
            tree.child_positions.append(position)
            tree.child_regs.append(reg)
        return energy, tree

    # ------------------------------------------------------------------
    # Greedy level-by-level growth (the paper's algorithm).
    # ------------------------------------------------------------------
    def greedy(self, template: TemplateNode, budget_nj: float) -> FormationResult:
        """Grow level by level while the cumulative cost stays in budget.

        The one-level tree is always produced (the pass rejects it later
        if even that exceeds ``E_ld``); each deeper level is adopted only
        while its cumulative cost remains within budget, and growth
        stops at the first level that exceeds it.
        """
        best_energy, best_tree = self._cut_at_depth(template, 0, 0)
        for depth in range(1, template.height + 1):
            energy, tree = self._cut_at_depth(template, depth, 0)
            if energy > budget_nj:
                break
            best_tree, best_energy = tree, energy
        return FormationResult(tree=best_tree, estimated_energy_nj=best_energy)

    def _cut_at_depth(
        self, node: TemplateNode, limit: int, depth: int
    ) -> Tuple[float, TemplateNode]:
        """Materialise the tree with expansion allowed below *limit* levels."""
        if node.is_checkpoint_load:
            # A checkpoint load expands by splicing its producer chain.
            if node.children and depth < limit and self._can_expand(node.pc, 0):
                return self._cut_at_depth(node.children[0], limit, depth)
            return self._priced(node, [], [])
        if depth >= limit:
            edges = list(zip(node.child_positions, node.child_regs))
            return self._priced(node, edges, [])
        cut: List[_Edge] = []
        kept: List[_Kept] = []
        for child, position, reg in zip(
            node.children, node.child_positions, node.child_regs
        ):
            # Growth stops at an edge that is (a) provably inconsistent
            # to expand, or (b) already free: a live register supplies
            # the operand without a checkpoint, so re-deriving it deeper
            # could only add instructions and history traffic.
            if not self._can_expand(node.pc, position) or self._is_live(
                node.pc, position
            ):
                cut.append((position, reg))
            else:
                child_energy, subtree = self._cut_at_depth(child, limit, depth + 1)
                kept.append((child_energy, subtree, position, reg))
        return self._priced(node, cut, kept)

    # ------------------------------------------------------------------
    # Optimal (minimum-E_rc) cut.
    # ------------------------------------------------------------------
    def best(self, node: TemplateNode) -> Tuple[float, TemplateNode]:
        """Minimum estimated energy and the materialised subtree."""
        if node.is_checkpoint_load:
            keep = self._priced(node, [], [])
            if node.children and self._can_expand(node.pc, 0):
                expanded = self.best(node.children[0])
                if expanded[0] < keep[0]:
                    return expanded
            return keep
        cut: List[_Edge] = []
        kept: List[_Kept] = []
        for child, position, reg in zip(
            node.children, node.child_positions, node.child_regs
        ):
            cut_energy = self._leaf_input_nj(node, position, True)
            if self._can_expand(node.pc, position):
                child_energy, subtree = self.best(child)
                if child_energy < cut_energy or child_energy == cut_energy == 0.0:
                    kept.append((child_energy, subtree, position, reg))
                    continue
            cut.append((position, reg))
        return self._priced(node, cut, kept)
