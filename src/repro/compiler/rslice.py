"""Recomputation-slice (RSlice) intermediate representation.

An RSlice is "an upside-down tree with P(v) residing at the root" (paper
section 2.1, Figure 1): every node is a producer instruction to be
re-executed, data flows from the leaves to the root, and each node's
inputs come either from its children (intermediate nodes read the SFile)
or — for leaves — from constants, live architectural registers, or
history-table checkpoints (paper sections 2.2 and 3.2).

This module defines the tree IR the compiler constructs
(:class:`TemplateNode`), the leaf-input classification
(:class:`LeafInputKind`), and the finished :class:`RSlice` artifact with
its cost annotations.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Iterator, List, Optional, Tuple, Union

from ..energy.account import Cost
from ..isa.opcodes import Opcode

Value = Union[int, float]


class LeafInputKind(enum.Enum):
    """How a leaf instruction's source operand is supplied at recompute time."""

    CONST = "const"  # an immediate, or a register proven constant
    LIVE_REG = "live"  # architectural register still holding the value
    HIST = "hist"  # checkpointed in the history table by a REC

    @property
    def needs_checkpoint(self) -> bool:
        """True for the non-recomputable inputs of paper section 2.2."""
        return self is LeafInputKind.HIST


@dataclasses.dataclass
class LeafInput:
    """One source operand of a leaf node, with its supply classification.

    ``kind`` starts as ``HIST`` (the safe assumption) and is relaxed to
    ``LIVE_REG``/``CONST`` by the liveness analysis in
    :mod:`repro.compiler.leaves`.
    """

    position: int
    reg_index: Optional[int] = None  # None for immediates
    const_value: Optional[Value] = None
    kind: LeafInputKind = LeafInputKind.HIST

    @classmethod
    def immediate(cls, position: int, value: Value) -> "LeafInput":
        return cls(position=position, const_value=value, kind=LeafInputKind.CONST)

    @classmethod
    def register(cls, position: int, reg_index: int) -> "LeafInput":
        return cls(position=position, reg_index=reg_index, kind=LeafInputKind.HIST)


@dataclasses.dataclass
class TemplateNode:
    """One producer instruction in a slice tree.

    A node is a *leaf* when ``children`` is empty: all its inputs are in
    ``leaf_inputs``.  Inner nodes carry one child per register source
    operand (``children[i]`` produces source position ``child_positions[i]``)
    and immediates in ``leaf_inputs``.

    ``is_checkpoint_load`` marks the special leaf that stands for a
    non-expanded load: the whole *value* is checkpointed (paper section
    3.5's read-only inputs kept in Hist) and the node lowers to a MOV
    from the history table.
    """

    pc: int
    opcode: Opcode
    children: List["TemplateNode"] = dataclasses.field(default_factory=list)
    child_positions: List[int] = dataclasses.field(default_factory=list)
    #: Register carrying each child edge in the original dataflow; used
    #: to rebuild a LeafInput when the cut turns this node into a leaf.
    child_regs: List[int] = dataclasses.field(default_factory=list)
    leaf_inputs: List[LeafInput] = dataclasses.field(default_factory=list)
    is_checkpoint_load: bool = False

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def walk(self) -> Iterator["TemplateNode"]:
        """Pre-order traversal of the subtree rooted here."""
        yield self
        for child in self.children:
            yield from child.walk()

    def post_order(self) -> Iterator["TemplateNode"]:
        """Children-before-parent traversal (slice execution order)."""
        for child in self.children:
            yield from child.post_order()
        yield self

    @property
    def size(self) -> int:
        """Number of instructions in the subtree."""
        return sum(1 for _ in self.walk())

    @property
    def height(self) -> int:
        """Levels below this node (a lone leaf has height 0)."""
        if self.is_leaf:
            return 0
        return 1 + max(child.height for child in self.children)

    def structural_signature(self) -> Tuple:
        """A hashable shape fingerprint used for template stability checks.

        Two dynamic instances of the same load are compatible iff their
        producer trees have identical signatures: same static pcs, same
        opcodes, same topology, same operand layout.
        """
        return (
            self.pc,
            self.opcode.value,
            self.is_checkpoint_load,
            tuple(
                (li.position, li.reg_index, li.const_value if li.reg_index is None else None)
                for li in self.leaf_inputs
            ),
            tuple(self.child_positions),
            tuple(child.structural_signature() for child in self.children),
        )


@dataclasses.dataclass
class RSlice:
    """A finished recomputation slice ready for binary embedding.

    * ``traversal_cost`` — the runtime energy/latency of one traversal
      (RCMP + slice instructions + Hist reads + RTN); this is the
      ``E_rc`` the scheduler's oracle policies compare against the load.
    * ``selection_cost`` — traversal cost plus the amortised main-path
      REC overhead per load; the compiler's selection criterion.
    * ``estimated_load_cost`` — the probabilistic ``E_ld`` from PrLi.
    """

    slice_id: int
    load_pc: int
    root: TemplateNode
    traversal_cost: Cost
    selection_cost: Cost
    estimated_load_cost: Cost

    @property
    def length(self) -> int:
        """Instruction count of the slice (the paper's Figure 6 metric)."""
        return self.root.size

    @property
    def height(self) -> int:
        return self.root.height

    @property
    def has_nonrecomputable_inputs(self) -> bool:
        """True if any node input needs a Hist checkpoint (Figure 7).

        Formation can produce *mixed* nodes (some inputs from children,
        some from Hist); any checkpointed input anywhere in the tree
        makes the slice depend on the history table.
        """
        return any(
            leaf_input.kind.needs_checkpoint
            for node in self.root.walk()
            for leaf_input in node.leaf_inputs
        )

    def hist_leaves(self) -> List[TemplateNode]:
        """Nodes with at least one checkpointed input, in slice order.

        Each of these needs a REC checkpoint planted next to its
        original instruction (paper section 3.1.2).
        """
        return [
            node
            for node in self.root.post_order()
            if any(li.kind.needs_checkpoint for li in node.leaf_inputs)
        ]
