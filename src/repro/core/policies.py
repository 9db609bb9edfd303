"""Runtime policies: when does the scheduler fire recomputation?

Paper section 3.3.1 spans the design space by two choices: how deep the
scheduler tag-probes the cache hierarchy before it decides, and for
which residence of the load the slice fires.  Each paper policy is a
:class:`PaperPolicy`, a probe depth (``probe_through``) times a fire
rule (``fires_at``), and the evaluation (section 5.1) compares five
configurations of four of them:

* **Compiler** — no probe; fires at every level: it "always triggers
  recomputation, for each RCMP encountered", so it pays no probe cost
  but may recompute L1-resident values wastefully.
* **FLC** — probes L1 (one tag lookup) and fires past L1.
* **LLC** — probes L1, then L2 on an L1 miss, and fires at MEM; the
  much larger L2 probe overhead is "the main delimiter for LLC".
* **C-Oracle** — no probe: it knows, at no cost, where the load would
  be serviced and fires iff the load energy at that level exceeds the
  slice's traversal energy.  Runs on the compiler's probabilistic
  slice set.
* **Oracle** — the same rule over the *all-valid* slice set (every
  validated slice is in the binary, not just the probabilistically
  profitable ones).

:meth:`PaperPolicy.decide` is the one decision that reads both choices;
the fast backend renders the same two choices for exactly these classes
(see :mod:`repro.core.backend`).  Any other policy, such as the miss
predictor of ``examples/custom_policy.py``, implements
:meth:`Policy.decide` itself.

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


class PaperPolicy(Policy):
    """A policy of the paper's design space: a probe depth and a fire rule.

    ``probe_through`` is how deep the scheduler tag-probes before it
    decides: None (no probe), ``Level.L1`` or ``Level.L2``.
    :meth:`fires_at` says whether the slice fires for a load resident
    at a level.  A probing policy fires only where its probe misses, so
    its rule is False down to ``probe_through`` and the same at every
    level past it, which the probe cannot tell apart.  :meth:`decide`
    is the one decision that reads both.
    """

    probe_through: Optional[Level] = None

    @abc.abstractmethod
    def fires_at(
        self, level: Level, slice_info: SliceInfo, model: EnergyModel
    ) -> bool:
        """Whether the slice fires for a load resident at *level*."""

    def decide(self, context: RcmpContext) -> Decision:
        hierarchy = context.hierarchy
        through = self.probe_through
        found = probe_cost = None
        if through is not None:
            found = hierarchy.probe(context.address, through=through)
            cost = hierarchy.probe_cost(found, through=through)
            probe_cost = Cost(cost.energy_nj, cost.latency_ns)
        level = hierarchy.residence(context.address)
        return Decision(
            fire=self.fires_at(level, context.slice_info, context.model),
            probe_cost=probe_cost,
            probe_hit_level=found,
        )


class CompilerPolicy(PaperPolicy):
    """Always fire: trust the compiler's probabilistic energy model."""

    name = "Compiler"

    def fires_at(self, level, slice_info, model):
        return True


class FLCPolicy(PaperPolicy):
    """Fire on a first-level cache miss (branch-on-FLC-miss)."""

    name = "FLC"
    probe_through = Level.L1

    def fires_at(self, level, slice_info, model):
        return level is not Level.L1


class LLCPolicy(PaperPolicy):
    """Fire on a last-level cache miss (branch-on-LLC-miss)."""

    name = "LLC"
    probe_through = Level.L2

    def fires_at(self, level, slice_info, model):
        return level is Level.MEM


class OracleDecisionPolicy(PaperPolicy):
    """Perfect residence knowledge: fire iff E_ld(actual) > E_rc(actual).

    Used for both C-Oracle (on the probabilistic binary) and Oracle (on
    the all-valid binary); the two configurations differ only in which
    slices exist, not in how the runtime decides.
    """

    name = "C-Oracle"

    def __init__(self, name: str = "C-Oracle"):
        self.name = name

    def fires_at(self, level, slice_info, model):
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
