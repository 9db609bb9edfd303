"""Runtime policy decision logic against a real hierarchy."""

import pytest

from repro.compiler.annotate import SliceInfo
from repro.compiler.rslice import RSlice, TemplateNode
from repro.core import (
    CompilerPolicy,
    FLCPolicy,
    LLCPolicy,
    OracleDecisionPolicy,
    make_policy,
)
from repro.core.policies import RcmpContext
from repro.energy import Cost, EPITable, EnergyModel
from repro.isa import Opcode
from repro.machine import Level, MemoryHierarchy

from ..conftest import tiny_config


def make_context(address=0x100, traversal_energy=2.0, warm=False):
    model = EnergyModel(epi=EPITable.default(), config=tiny_config())
    hierarchy = MemoryHierarchy(model.config)
    if warm:
        hierarchy.load(address)
    rslice = RSlice(
        slice_id=0,
        load_pc=0,
        root=TemplateNode(pc=0, opcode=Opcode.LI),
        traversal_cost=Cost(traversal_energy, 2.0),
        selection_cost=Cost(traversal_energy, 2.0),
        estimated_load_cost=Cost(10.0, 10.0),
    )
    info = SliceInfo(rslice=rslice, entry_label="rslice_0",
                     hist_leaf_ids=(), sreg_demand=1)
    return RcmpContext(address=address, slice_info=info,
                       hierarchy=hierarchy, model=model)


LEVELS = (Level.L1, Level.L2, Level.MEM)


@pytest.mark.parametrize(
    ("policy", "through", "fires"),
    [
        (CompilerPolicy(), None, (True, True, True)),
        (FLCPolicy(), Level.L1, (False, True, True)),
        (LLCPolicy(), Level.L2, (False, False, True)),
        # A 2 nJ slice: dearer than an L1 load, cheaper than L2 or MEM.
        (OracleDecisionPolicy(), None, (False, True, True)),
        (OracleDecisionPolicy("Oracle"), None, (False, True, True)),
    ],
    ids=lambda value: getattr(value, "name", None),
)
def test_paper_policy_is_a_probe_depth_and_a_fire_rule(policy, through, fires):
    context = make_context(traversal_energy=2.0)
    assert policy.probe_through is through
    assert (
        tuple(
            policy.fires_at(level, context.slice_info, context.model)
            for level in LEVELS
        )
        == fires
    )


@pytest.mark.parametrize("warmth", ("L1", "L2", "MEM"))
@pytest.mark.parametrize(
    "policy", (CompilerPolicy(), FLCPolicy(), LLCPolicy(), OracleDecisionPolicy()),
    ids=lambda policy: policy.name,
)
def test_decide_fires_by_the_rule_at_the_residence(policy, warmth):
    context = make_context(warm=warmth != "MEM")
    if warmth == "L2":
        for index in range(1, 5):
            context.hierarchy.load(context.address + index * 8)
    level = context.hierarchy.residence(context.address)
    assert level.value == warmth
    decision = policy.decide(context)
    assert decision.fire == policy.fires_at(level, context.slice_info, context.model)
    assert (decision.probe_cost is None) == (policy.probe_through is None)


def test_compiler_always_fires():
    decision = CompilerPolicy().decide(make_context(warm=True))
    assert decision.fire
    assert decision.probe_cost is None


def test_flc_fires_on_l1_miss_only():
    cold = FLCPolicy().decide(make_context(warm=False))
    assert cold.fire
    assert cold.probe_cost.energy_nj == 0.88
    warm = FLCPolicy().decide(make_context(warm=True))
    assert not warm.fire
    assert warm.probe_hit_level is Level.L1


def test_llc_probe_cost_is_much_larger():
    """The paper's 'main delimiter for LLC' (section 5.1)."""
    flc = FLCPolicy().decide(make_context(warm=False))
    llc = LLCPolicy().decide(make_context(warm=False))
    assert llc.fire
    assert llc.probe_cost.energy_nj > 5 * flc.probe_cost.energy_nj


def test_llc_skips_on_l2_hit():
    context = make_context(warm=True)
    # Evict from L1 but leave in L2.
    for index in range(1, 5):
        context.hierarchy.load(context.address + index * 8)
    assert context.hierarchy.residence(context.address) is Level.L2
    decision = LLCPolicy().decide(context)
    assert not decision.fire
    assert decision.probe_hit_level is Level.L2


def test_oracle_fires_iff_load_dearer():
    cheap_slice = make_context(traversal_energy=2.0, warm=False)
    assert OracleDecisionPolicy().decide(cheap_slice).fire  # MEM load >> 2nJ
    warm = make_context(traversal_energy=2.0, warm=True)
    assert not OracleDecisionPolicy().decide(warm).fire  # L1 load < 2nJ
    expensive_slice = make_context(traversal_energy=100.0, warm=False)
    assert not OracleDecisionPolicy().decide(expensive_slice).fire


def test_probe_does_not_disturb_cache_state():
    context = make_context(warm=False)
    FLCPolicy().decide(context)
    LLCPolicy().decide(context)
    assert context.hierarchy.residence(context.address) is Level.MEM


def test_make_policy_by_name():
    assert make_policy("Compiler").name == "Compiler"
    assert make_policy("FLC").name == "FLC"
    assert make_policy("LLC").name == "LLC"
    assert make_policy("C-Oracle").name == "C-Oracle"
    assert make_policy("Oracle").name == "Oracle"
    with pytest.raises(ValueError):
        make_policy("bogus")
