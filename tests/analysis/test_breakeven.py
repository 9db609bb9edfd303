"""Break-even bisection (Table 6)."""

import pytest

from repro.analysis import edp_gain_at_factor, find_breakeven
from repro.energy import paper_energy_model, r_default


def test_bisection_with_injected_gain():
    """Synthetic gain curve: positive below 10, negative above."""
    calls = []

    def gain(factor):
        calls.append(factor)
        return 10.0 - factor

    result = find_breakeven("synthetic", None, None, gain_fn=gain)
    assert result.converged
    assert result.breakeven_factor == pytest.approx(10.0, abs=0.5)


def test_unprofitable_at_default():
    result = find_breakeven("dead", None, None, gain_fn=lambda f: -1.0)
    assert result.breakeven_factor == 1.0
    assert result.gain_at_default_percent == -1.0


def test_cap_reported_as_lower_bound():
    result = find_breakeven("cap", None, None, max_factor=8.0,
                            gain_fn=lambda f: 5.0)
    assert not result.converged
    assert result.breakeven_factor == 8.0


def test_default_r_matches_paper():
    assert r_default(paper_energy_model()) == pytest.approx(0.0086, abs=0.001)


@pytest.mark.integration
def test_real_gain_erodes_as_compute_gets_dearer():
    """On a profitable benchmark the gain must erode when compute EPI
    grows by a large factor (the Table 6 mechanism)."""
    from repro.workloads import get

    model = paper_energy_model()
    program = get("is").instantiate(0.25)
    gain_default = edp_gain_at_factor(program, model, 1.0)
    gain_scaled = edp_gain_at_factor(program, model, 64.0)
    assert gain_default > 5.0
    assert gain_scaled < gain_default


@pytest.mark.integration
def test_shared_profile_matches_fresh_profiles_at_every_factor():
    """table6's bisection compiles one profile under every probed factor.

    The compiler's front end is memoized on the profile and not keyed by
    the energy model, so a compile under a scaled model must still equal
    one from a fresh profile.
    """
    from repro.trace.recorder import profile_program
    from repro.workloads import get

    model = paper_energy_model()
    program = get("is").instantiate(0.25)
    profile = profile_program(program, model)
    for factor in (1.0, 64.0):
        shared = edp_gain_at_factor(program, model, factor, profile=profile)
        assert shared == edp_gain_at_factor(program, model, factor)
    assert profile.memo
