"""Break-even analysis of the compute/communication ratio R (Table 6).

Paper section 5.5: the effectiveness of amnesic execution rests on
non-memory instructions being much cheaper than loads,
``R = EPI_nonmem / EPI_ld`` with ``R_default = 0.45/52.14 ~ 0.0086``.
Table 6 reports, per benchmark, by how much R must grow over its default
before amnesic execution (under C-Oracle) stops being beneficial.

We reproduce it by scaling every compute-category EPI by a factor,
recompiling (the compiler's cost model sees the scaled EPI, shrinking
its slice set as recomputation gets dearer), re-running C-Oracle, and
bisecting on the sign of the EDP gain.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

from ..compiler.amnesic_pass import PassOptions, compile_amnesic
from ..core.execution import percent_gain, run_amnesic, run_classic
from ..energy.model import EnergyModel
from ..isa.program import Program
from ..trace.recorder import ProfileResult


@dataclasses.dataclass
class BreakevenResult:
    """Break-even point of one benchmark."""

    benchmark: str
    breakeven_factor: float  # R_breakeven / R_default
    gain_at_default_percent: float
    converged: bool


def edp_gain_at_factor(
    program: Program,
    base_model: EnergyModel,
    factor: float,
    policy: str = "C-Oracle",
    options: PassOptions = PassOptions(),
    profile: Optional[ProfileResult] = None,
) -> float:
    """EDP gain (%) with all compute EPIs scaled by *factor*.

    *profile* lets callers reuse one profiling run across every probed
    factor: scaling compute EPIs changes costs, not the trace (the
    memory hierarchy is untouched), so the profile is factor-invariant.
    Only pass a profile gathered under the same machine configuration.
    """
    scaled = EnergyModel(
        epi=base_model.epi.scaled_nonmem(factor), config=base_model.config
    )
    compilation = compile_amnesic(program, scaled, profile=profile, options=options)
    classic = run_classic(program, scaled)
    amnesic = run_amnesic(compilation, policy, scaled)
    return percent_gain(classic.edp, amnesic.edp)


def find_breakeven(
    benchmark: str,
    program: Program,
    model: EnergyModel,
    policy: str = "C-Oracle",
    max_factor: float = 128.0,
    tolerance: float = 0.5,
    options: PassOptions = PassOptions(),
    gain_fn: Optional[Callable[[float], float]] = None,
    profile: Optional[ProfileResult] = None,
) -> BreakevenResult:
    """Bisect for the R multiplier where the EDP gain crosses zero.

    ``gain_fn`` may be injected for testing; by default it recompiles and
    re-runs the benchmark at each probed factor.  ``profile`` (an
    existing profiling run of *program* under *model*'s configuration)
    is forwarded to every probe so the trace is gathered only once.
    """
    if gain_fn is None:
        def gain_fn(factor: float) -> float:
            return edp_gain_at_factor(
                program, model, factor, policy, options, profile=profile
            )

    gain_at_default = gain_fn(1.0)
    if gain_at_default <= 0:
        return BreakevenResult(benchmark, 1.0, gain_at_default, converged=True)

    low, high = 1.0, 2.0
    high_gain = gain_fn(high)
    while high_gain > 0 and high < max_factor:
        low = high
        high = min(high * 2.0, max_factor)
        high_gain = gain_fn(high)
    if high_gain > 0:
        # Still profitable at the cap: report the cap as a lower bound.
        return BreakevenResult(benchmark, max_factor, gain_at_default, converged=False)

    while high - low > tolerance:
        mid = (low + high) / 2.0
        if gain_fn(mid) > 0:
            low = mid
        else:
            high = mid
    return BreakevenResult(
        benchmark, (low + high) / 2.0, gain_at_default, converged=True
    )
