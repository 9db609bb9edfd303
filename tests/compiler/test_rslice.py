"""RSlice tree IR: traversal, shape metrics, signatures."""

from repro.compiler.rslice import (
    LeafInput,
    LeafInputKind,
    RSlice,
    TemplateNode,
)
from repro.energy import Cost
from repro.isa import Opcode


def leaf(pc, reg=None, const=None):
    inputs = []
    if reg is not None:
        inputs.append(LeafInput.register(0, reg))
    if const is not None:
        inputs.append(LeafInput.immediate(len(inputs), const))
    return TemplateNode(pc=pc, opcode=Opcode.ADD, leaf_inputs=inputs)


def tree():
    """root(add) <- [a(mul leaf), b(xor) <- [c(li leaf)]]"""
    c = TemplateNode(pc=4, opcode=Opcode.LI,
                     leaf_inputs=[LeafInput.immediate(0, 7)])
    b = TemplateNode(pc=3, opcode=Opcode.XOR,
                     children=[c], child_positions=[0], child_regs=[5],
                     leaf_inputs=[LeafInput.immediate(1, 9)])
    a = leaf(2, reg=6, const=3)
    root = TemplateNode(pc=1, opcode=Opcode.ADD,
                        children=[a, b], child_positions=[0, 1],
                        child_regs=[6, 7])
    return root, a, b, c


def test_walk_is_preorder():
    root, a, b, c = tree()
    assert [n.pc for n in root.walk()] == [1, 2, 3, 4]


def test_post_order_children_first():
    root, a, b, c = tree()
    order = [n.pc for n in root.post_order()]
    assert order == [2, 4, 3, 1]
    assert order[-1] == root.pc


def test_size_and_height():
    root, a, b, c = tree()
    assert root.size == 4
    assert root.height == 2
    assert a.height == 0


def test_signature_distinguishes_structure():
    first, *_ = tree()
    second, *_ = tree()
    assert first.structural_signature() == second.structural_signature()
    third, a, b, c = tree()
    c.leaf_inputs[0] = LeafInput.immediate(0, 8)  # different constant
    assert third.structural_signature() != first.structural_signature()


def test_signature_ignores_register_values_but_not_positions():
    x = leaf(1, reg=4)
    y = leaf(1, reg=4)
    assert x.structural_signature() == y.structural_signature()
    z = TemplateNode(pc=1, opcode=Opcode.ADD,
                     leaf_inputs=[LeafInput.register(1, 4)])
    assert z.structural_signature() != x.structural_signature()


def make_rslice(root):
    return RSlice(
        slice_id=0, load_pc=9, root=root,
        traversal_cost=Cost(1.0, 1.0),
        selection_cost=Cost(1.5, 1.5),
        estimated_load_cost=Cost(9.0, 9.0),
    )


def test_rslice_metrics():
    root, *_ = tree()
    rslice = make_rslice(root)
    assert rslice.length == 4
    assert rslice.height == 2


def test_nonrecomputable_detection():
    root, a, b, c = tree()
    rslice = make_rslice(root)
    assert rslice.has_nonrecomputable_inputs  # a's register input is HIST
    assert [n.pc for n in rslice.hist_leaves()] == [2]
    a.leaf_inputs[0].kind = LeafInputKind.LIVE_REG
    assert not rslice.has_nonrecomputable_inputs
    assert rslice.hist_leaves() == []


def test_leaf_input_kinds():
    immediate = LeafInput.immediate(0, 5)
    register = LeafInput.register(1, 7)
    assert immediate.kind is LeafInputKind.CONST
    assert not immediate.kind.needs_checkpoint
    assert register.kind is LeafInputKind.HIST
    assert register.kind.needs_checkpoint
