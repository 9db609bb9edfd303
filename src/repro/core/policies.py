"""Runtime policies: when does the scheduler fire recomputation?

Paper section 3.3.1 defines the design space; the evaluation (section
5.1) compares five configurations:

* **Compiler** — "always triggers recomputation, for each RCMP
  encountered"; no probing, so no probe cost, but possibly wasteful
  recomputation of L1-resident values.
* **FLC** — probe the first-level cache and fire on a miss; the probe
  costs one L1 tag lookup.
* **LLC** — probe down to the last-level cache and fire on an LLC miss;
  the much larger L2 probe overhead is "the main delimiter for LLC".
* **C-Oracle** — knows, at no cost, where the load would be serviced and
  fires iff the *actual* load energy exceeds the slice's actual
  traversal energy.  Runs on the compiler's probabilistic slice set.
* **Oracle** — the same perfect decision rule over the *all-valid* slice
  set (every validated slice is in the binary, not just the
  probabilistically profitable ones).

Policies are stateless decision functions; the amnesic CPU supplies an
:class:`RcmpContext` per RCMP, charges the returned probe cost on the
appropriate path and meters the decision.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Optional

from ..compiler.annotate import SliceInfo
from ..energy.account import Cost
from ..energy.model import EnergyModel
from ..machine.config import Level
from ..machine.hierarchy import MemoryHierarchy


@dataclasses.dataclass
class RcmpContext:
    """Everything a policy may inspect at an RCMP."""

    address: int
    slice_info: SliceInfo
    hierarchy: MemoryHierarchy
    model: EnergyModel


@dataclasses.dataclass(frozen=True)
class Decision:
    """A policy's verdict for one RCMP instance.

    ``probe_cost`` is the tag-lookup overhead incurred to reach the
    verdict.  It is charged when recomputation fires (the paper's
    "recomputation cost includes the cost of probing the on-chip memory
    hierarchy") and when a fallback load follows a missed probe; a probe
    that *hits* folds into the ensuing load's normal access walk.
    """

    fire: bool
    probe_cost: Optional[Cost] = None
    probe_hit_level: Optional[Level] = None


class Policy(abc.ABC):
    """A runtime recomputation-firing policy."""

    name: str = "abstract"

    @abc.abstractmethod
    def decide(self, context: RcmpContext) -> Decision:
        """Decide whether recomputation along this RCMP's slice fires."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class CompilerPolicy(Policy):
    """Always fire: trust the compiler's probabilistic energy model."""

    name = "Compiler"

    def decide(self, context: RcmpContext) -> Decision:
        return Decision(fire=True)


class FLCPolicy(Policy):
    """Fire on a first-level cache miss (branch-on-FLC-miss)."""

    name = "FLC"

    def decide(self, context: RcmpContext) -> Decision:
        found = context.hierarchy.probe(context.address, through=Level.L1)
        cost = context.hierarchy.probe_cost(found, through=Level.L1)
        return Decision(
            fire=found is None,
            probe_cost=Cost(cost.energy_nj, cost.latency_ns),
            probe_hit_level=found,
        )


class LLCPolicy(Policy):
    """Fire on a last-level cache miss (branch-on-LLC-miss)."""

    name = "LLC"

    def decide(self, context: RcmpContext) -> Decision:
        found = context.hierarchy.probe(context.address, through=Level.L2)
        cost = context.hierarchy.probe_cost(found, through=Level.L2)
        return Decision(
            fire=found is None,
            probe_cost=Cost(cost.energy_nj, cost.latency_ns),
            probe_hit_level=found,
        )


class OracleDecisionPolicy(Policy):
    """Perfect residence knowledge: fire iff E_ld(actual) > E_rc(actual).

    Used for both C-Oracle (on the probabilistic binary) and Oracle (on
    the all-valid binary); the two configurations differ only in which
    slices exist, not in how the runtime decides.
    """

    name = "C-Oracle"

    def __init__(self, name: str = "C-Oracle"):
        self.name = name

    def decide(self, context: RcmpContext) -> Decision:
        level = context.hierarchy.residence(context.address)
        return Decision(fire=self.fires_at(level, context.slice_info, context.model))

    @staticmethod
    def fires_at(level: Level, slice_info: SliceInfo, model: EnergyModel) -> bool:
        """The decision for a load resident at *level*: E_ld > E_rc."""
        load_cost = model.load_cost_at(level)
        recompute_cost = slice_info.rslice.traversal_cost
        return load_cost.energy_nj > recompute_cost.energy_nj


def make_policy(name: str) -> Policy:
    """Instantiate a policy by its evaluation name."""
    table = {
        "Compiler": CompilerPolicy,
        "FLC": FLCPolicy,
        "LLC": LLCPolicy,
    }
    if name in table:
        return table[name]()
    if name in ("C-Oracle", "Oracle"):
        return OracleDecisionPolicy(name)
    raise ValueError(f"unknown policy {name!r}")


#: The paper's Figure 3 legend order.
POLICY_NAMES = ("Oracle", "C-Oracle", "Compiler", "FLC", "LLC")
