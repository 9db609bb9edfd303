"""Execution backend registry: classic reference vs generated fast path.

A *backend* is a pair of CPU classes — one for classic semantics, one
for amnesic binaries — that agree bit-for-bit on architectural state,
RunStats, hierarchy state, and energy accounts.  ``classic`` is the
reference implementation in :mod:`repro.machine.cpu` /
:mod:`repro.core.amnesic_cpu`; ``fast-batched`` runs the generated fast
path of :mod:`repro.machine.fastpath`: per-pc functions, statically
proven straight-line regions (:mod:`repro.staticcheck.regions`) fused
into single dispatches, and fused slice traversals.  The fuzz oracle's
backend check (:func:`repro.fuzz.oracle.check_backend_equivalence`)
holds the pair to exact equivalence, the same way the differential
oracle holds amnesic execution to the classic baseline.

Selection order: an explicit ``backend=`` argument (CLI ``--backend``)
wins, then the ``REPRO_BACKEND`` environment variable, then
``classic``.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Optional, Tuple, Type

from ..machine.config import Level
from ..machine.cpu import CPU
from ..machine.fastpath import BatchedExecutionMixin, BatchedFastCPU
from .amnesic_cpu import AmnesicCPU
from .policies import CompilerPolicy, FLCPolicy, LLCPolicy, OracleDecisionPolicy

#: Environment variable consulted when no explicit backend is passed.
ENV_BACKEND = "REPRO_BACKEND"

DEFAULT_BACKEND = "classic"

#: The paper policies' decisions as generated-code mechanisms (see
#: :data:`repro.machine.fastpath._MECHANISMS`), by policy class.
RCMP_MECHANISMS = {
    CompilerPolicy: "always",
    FLCPolicy: "l1",
    LLCPolicy: "l2",
    OracleDecisionPolicy: "table",
}


class BatchedFastAmnesicCPU(BatchedExecutionMixin, AmnesicCPU):
    """The generated fast backend for amnesic binaries.

    Straight-line runs between amnesic/control opcodes fuse into single
    dispatches (the region analyzer never batches across RCMP/REC/RTN)
    and REC runs from its description.  RCMP renders per pc for the
    run's policy when :data:`RCMP_MECHANISMS` knows its class — the
    decision inline, a direct call into the slice's fused traversal,
    the inherited load from the LD description; any other policy, a
    traced run and a live telemetry session keep the classic scheduler
    via the handler thunk.  Untraced slice traversals run as
    register-resident generated functions.
    """

    def _rcmp_mechanism(self):
        return RCMP_MECHANISMS.get(type(self.policy))

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


def resolve_backend(name: Optional[str] = None) -> Backend:
    """Resolve a backend by name, falling back to env then default."""
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
    "RCMP_MECHANISMS",
    "Backend",
    "BatchedFastAmnesicCPU",
    "resolve_backend",
]
