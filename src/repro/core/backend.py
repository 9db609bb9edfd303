"""Execution backend registry: classic reference vs generated fast path.

A *backend* is a pair of CPU classes — one for classic semantics, one
for amnesic binaries — that agree bit-for-bit on architectural state,
RunStats, hierarchy state, and energy accounts.  ``classic`` is the
reference implementation in :mod:`repro.machine.cpu` /
:mod:`repro.core.amnesic_cpu`; ``fast-batched`` runs the generated fast
path of :mod:`repro.machine.fastpath`: per-pc functions, statically
proven straight-line regions (:mod:`repro.staticcheck.regions`) fused
into single dispatches, fused slice traversals, and ``RCMP`` decided
inline for the paper's policies (:data:`PAPER_POLICIES`) from the probe
depth and fire rule :mod:`repro.core.policies` states for each; any
other policy keeps the classic scheduler.  The fuzz oracle
(:func:`repro.fuzz.oracle.check_program` with ``backend=``) holds a
non-classic backend's plain and amnesic runs to classic runs of the same
configuration exactly, in the same pass that holds amnesic execution to
the classic baseline.

Selection order: an explicit ``backend=`` argument (CLI ``--backend``;
a name or a :class:`Backend`) wins, then the ``REPRO_BACKEND``
environment variable, then ``classic``.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Tuple, Type, Union

from ..machine.config import Level
from ..machine.cpu import CPU
from ..machine.fastpath import BatchedExecutionMixin, BatchedFastCPU
from .amnesic_cpu import AmnesicCPU
from .policies import CompilerPolicy, FLCPolicy, LLCPolicy, OracleDecisionPolicy

#: Environment variable consulted when no explicit backend is passed.
ENV_BACKEND = "REPRO_BACKEND"

DEFAULT_BACKEND = "classic"

#: The paper's policies, whose RCMP renders from their probe depth and
#: fire rule.  The test is by exact class: a subclass may override
#: ``decide`` (the probe-cost ablation's free-probe LLC does), so it
#: keeps the classic scheduler.
PAPER_POLICIES = frozenset(
    {CompilerPolicy, FLCPolicy, LLCPolicy, OracleDecisionPolicy}
)


class BatchedFastAmnesicCPU(BatchedExecutionMixin, AmnesicCPU):
    """The generated fast backend for amnesic binaries.

    Straight-line runs between amnesic/control opcodes fuse into single
    dispatches (the region analyzer never batches across RCMP/REC/RTN)
    and REC runs from its description.  RCMP renders per pc when the
    run's policy is one of :data:`PAPER_POLICIES`: the policy's
    decision inline (the load's residence, the tag probes of its
    ``probe_through`` and each slice's fire table from its
    ``fires_at``), a direct call into the slice's fused traversal, the
    inherited load from the LD description.  Any other policy, a traced
    run and a live telemetry session keep the classic scheduler via the
    handler thunk.  Untraced slice traversals run as register-resident
    generated functions.
    """

    def _rcmp_depth(self):
        policy = self.policy
        if type(policy) not in PAPER_POLICIES:
            return None
        return (None, Level.L1, Level.L2).index(policy.probe_through)

    def _rcmp_fire_table(self, info):
        """Whether a slice fires at each residence (L1, L2, MEM)."""
        return tuple(
            self.policy.fires_at(level, info, self.model)
            for level in (Level.L1, Level.L2, Level.MEM)
        )


@dataclasses.dataclass(frozen=True)
class Backend:
    """One named execution backend."""

    name: str
    cpu_cls: Type[CPU]
    amnesic_cls: Type[AmnesicCPU]


BACKENDS = {
    "classic": Backend("classic", CPU, AmnesicCPU),
    "fast-batched": Backend("fast-batched", BatchedFastCPU, BatchedFastAmnesicCPU),
}

BACKEND_NAMES: Tuple[str, ...] = tuple(BACKENDS)


def resolve_backend(name: Union[str, Backend, None] = None) -> Backend:
    """Resolve a backend by name, falling back to env then default.

    A :class:`Backend` passes through, so callers may hand in a pair
    outside the registry (the fuzzer's deliberately broken twins).
    """
    if isinstance(name, Backend):
        return name
    if name is None:
        name = os.environ.get(ENV_BACKEND) or DEFAULT_BACKEND
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown execution backend {name!r} "
            f"(expected one of {', '.join(BACKENDS)})"
        ) from None


__all__ = [
    "BACKENDS",
    "BACKEND_NAMES",
    "DEFAULT_BACKEND",
    "ENV_BACKEND",
    "PAPER_POLICIES",
    "Backend",
    "BatchedFastAmnesicCPU",
    "resolve_backend",
]
