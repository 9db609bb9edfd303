"""Energy accounting invariants."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.energy import Cost, EnergyAccount, GROUP_LOAD, GROUP_NONMEM


def test_charge_accumulates_energy_and_time():
    account = EnergyAccount()
    account.charge(GROUP_LOAD, Cost(10.0, 5.0))
    account.charge(GROUP_NONMEM, Cost(2.0, 1.0))
    assert account.total_energy_nj == 12.0
    assert account.total_time_ns == 6.0
    assert account.edp == 72.0


def test_unknown_group_rejected():
    account = EnergyAccount()
    with pytest.raises(KeyError):
        account.charge("bogus", Cost(1, 1))


def test_energy_only_charge_leaves_time():
    account = EnergyAccount()
    account.charge_energy_only(GROUP_LOAD, 5.0)
    assert account.total_energy_nj == 5.0
    assert account.total_time_ns == 0.0


def test_cost_addition_and_scaling():
    cost = Cost(2.0, 3.0) + Cost(1.0, 1.0)
    assert cost == Cost(3.0, 4.0)
    assert cost.scaled(2.0) == Cost(6.0, 8.0)


costs = st.builds(
    Cost,
    st.floats(min_value=0, max_value=1e6, allow_nan=False),
    st.floats(min_value=0, max_value=1e6, allow_nan=False),
)


@given(st.lists(costs, max_size=30))
def test_total_is_sum_of_charges(charges):
    account = EnergyAccount()
    for cost in charges:
        account.charge(GROUP_LOAD, cost)
    assert abs(account.total_energy_nj - sum(c.energy_nj for c in charges)) < 1e-6
    assert abs(account.total_time_ns - sum(c.time_ns for c in charges)) < 1e-6
