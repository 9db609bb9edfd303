"""Slice formation: greedy growth vs optimal cut."""

import pytest

from repro.compiler import LeafInput, TemplateExtractor, TemplateNode
from repro.compiler.cost import CostContext
from repro.compiler.formation import (
    FORMATION_GREEDY,
    FORMATION_OPTIMAL,
    form_slice_tree,
)
from repro.compiler.leaves import OperandFacts, collect_liveness
from repro.energy import EPITable, EnergyModel
from repro.isa import Opcode
from repro.trace import profile_program

from ..conftest import build_spill_kernel, tiny_config


def setup_candidate(chain=6, iterations=12):
    program = build_spill_kernel(iterations=iterations, chain=chain, gap=4)
    model = EnergyModel(epi=EPITable.default(), config=tiny_config())
    profile = profile_program(program, model)
    tracker = profile.dependence
    context = CostContext.from_trace(model, profile.loads, tracker)
    extractor = TemplateExtractor(tracker)
    (load_pc,) = [
        pc for pc in program.static_loads() if extractor.extract(pc) is not None
    ]
    template = extractor.extract(load_pc).tree
    facts = collect_liveness({load_pc: template}, tracker)
    return template, context, load_pc, facts


def test_greedy_grows_within_budget():
    template, context, load_pc, facts = setup_candidate()
    generous = form_slice_tree(
        template, context, load_pc, liveness=facts,
        mode=FORMATION_GREEDY, budget_nj=1000.0,
    )
    tight = form_slice_tree(
        template, context, load_pc, liveness=facts,
        mode=FORMATION_GREEDY, budget_nj=2.0,
    )
    assert generous.tree.size >= tight.tree.size
    assert tight.tree.size >= 1


def test_greedy_stops_at_first_unaffordable_level():
    template, context, load_pc, facts = setup_candidate()
    result = form_slice_tree(
        template, context, load_pc, liveness=facts,
        mode=FORMATION_GREEDY, budget_nj=3.5,
    )
    assert result.estimated_energy_nj <= 3.5 or result.tree.size == 1


def test_optimal_never_costlier_than_greedy():
    template, context, load_pc, facts = setup_candidate()
    greedy = form_slice_tree(
        template, context, load_pc, liveness=facts, mode=FORMATION_GREEDY,
        budget_nj=1000.0,
    )
    optimal = form_slice_tree(
        template, context, load_pc, liveness=facts, mode=FORMATION_OPTIMAL,
    )
    assert optimal.estimated_energy_nj <= greedy.estimated_energy_nj + 1e-9


def test_optimal_prefers_short_slices():
    """A history read is cheaper than re-executing a long chain, so the
    minimum-E_rc cut stays very short (the formation-mode ablation)."""
    template, context, load_pc, facts = setup_candidate(chain=8)
    optimal = form_slice_tree(
        template, context, load_pc, liveness=facts, mode=FORMATION_OPTIMAL,
    )
    assert optimal.tree.size <= 4


def test_unknown_mode_rejected():
    template, context, load_pc, facts = setup_candidate()
    try:
        form_slice_tree(template, context, load_pc, mode="bogus")
    except ValueError as error:
        assert "bogus" in str(error)
    else:
        raise AssertionError("expected ValueError")


def test_cut_positions_become_leaf_inputs():
    template, context, load_pc, facts = setup_candidate()
    result = form_slice_tree(
        template, context, load_pc, liveness=facts,
        mode=FORMATION_GREEDY, budget_nj=2.0,
    )
    # Per node: every source position is either a child or a leaf input.
    for node in result.tree.walk():
        positions = sorted(
            [li.position for li in node.leaf_inputs] + list(node.child_positions)
        )
        assert positions == list(range(len(positions)))


@pytest.mark.parametrize("mode", [FORMATION_GREEDY, FORMATION_OPTIMAL])
def test_a_node_plants_one_rec_however_many_inputs_it_checkpoints(mode):
    """Formation charges one amortised REC per node, as selection does.

    The node checkpoints its own register input and the operand of a
    child edge formation may not grow through, so it has two Hist
    inputs and plants one REC.
    """
    template, context, load_pc, _ = setup_candidate()
    child = TemplateNode(
        pc=template.pc + 1,
        opcode=Opcode.ADD,
        leaf_inputs=[LeafInput.register(0, 1), LeafInput.register(1, 2)],
    )
    node = TemplateNode(
        pc=template.pc,
        opcode=Opcode.ADD,
        children=[child],
        child_positions=[0],
        child_regs=[3],
        leaf_inputs=[LeafInput.register(1, 4)],
    )
    refused = OperandFacts(live={}, edge_consistent={(load_pc, node.pc, 0): False})
    formed = form_slice_tree(
        node, context, load_pc, liveness=refused, mode=mode, budget_nj=1000.0
    )
    assert formed.tree.size == 1
    assert [li.position for li in formed.tree.leaf_inputs] == [0, 1]
    selection = context.selection_cost(formed.tree, load_pc).energy_nj
    overhead = context.control_overhead().energy_nj
    assert formed.estimated_energy_nj + overhead == pytest.approx(selection, rel=1e-9)
