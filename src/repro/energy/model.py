"""The machine energy/timing model tying EPI tables to the hierarchy.

:class:`EnergyModel` prices every event the simulator produces:

* compute instructions — category EPI + one core cycle;
* loads/stores — the hierarchy's per-level access energy and round-trip
  latency (paper Table 3);
* the amnesic extensions, following the paper's section 4 modelling:
  "we model RCMP's overhead after a conditional branch; REC's, after a
  store to L1-D; RTN's, after a jump", Hist after L1-D, SFile after the
  physical register file, IBuff after L1-I.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from ..isa.opcodes import Category
from ..machine.config import Level, MachineConfig
from ..machine.hierarchy import Access
from .account import Cost
from .epi import LATENCY_CYCLES, EPITable

#: Energy of one SFile (physical-register-file-class) access in nJ.  Two
#: orders of magnitude below L1-D, consistent with register file vs SRAM
#: macro energy at 22nm; folded into slice-instruction cost.
SFILE_ACCESS_NJ = 0.01

#: Energy of one IBuff access, modelled after L1-I (paper section 4).
IBUFF_ACCESS_NJ = 0.88


@dataclasses.dataclass(frozen=True)
class EnergyModel:
    """Prices simulator events in (nJ, ns)."""

    epi: EPITable
    config: MachineConfig

    # ------------------------------------------------------------------
    # Identity.
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable content hash of everything that prices an event.

        Two models built independently from the same EPI values and
        machine configuration share a fingerprint, so result caches can
        key runs by model *value* instead of object identity — the
        property the persistent result cache and the parallel engine's
        work units rely on (workers unpickle their own model copy).
        Hashed once per instance and kept with the memoized costs.
        """
        return self._memo("fingerprint", self._digest)

    def _digest(self) -> str:
        payload = {
            "epi": {
                category.name: value
                for category, value in sorted(
                    self.epi.values.items(), key=lambda item: item[0].name
                )
            },
            "l1_geometry": dataclasses.astuple(self.config.l1_geometry),
            "l2_geometry": dataclasses.astuple(self.config.l2_geometry),
            "l1_params": dataclasses.astuple(self.config.l1_params),
            "l2_params": dataclasses.astuple(self.config.l2_params),
            "mem_params": dataclasses.astuple(self.config.mem_params),
            "frequency_ghz": self.config.frequency_ghz,
            "sfile_access_nj": SFILE_ACCESS_NJ,
            "ibuff_access_nj": IBUFF_ACCESS_NJ,
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    # ------------------------------------------------------------------
    # Classic events.
    # ------------------------------------------------------------------
    def _memo(self, key, build):
        """Per-instance memo for the fixed-price events (and the fingerprint).

        Every input is frozen, so each (category, event) prices
        identically for the model's lifetime; the hot interpreter loops
        (one ``compute_cost`` per retired instruction, one
        ``slice_instruction_cost`` per recomputed one) then skip the
        dict lookups and ``Cost`` construction.  ``Cost`` is frozen
        too, so sharing one instance across call sites is safe.
        :meth:`compute_cost`, priced once per retired compute
        instruction, looks its key up before it calls this, so its hit is
        one dict lookup and builds no closure.
        """
        cache = self.__dict__.get("_cost_memo")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_cost_memo", cache)
        cost = cache.get(key)
        if cost is None:
            cost = cache[key] = build()
        return cost

    def compute_cost(self, category: Category) -> Cost:
        """Cost of one non-memory instruction: EPI + its cycle count.

        Most categories take one core cycle; divides and square roots
        take their classic multi-cycle latencies (see
        :data:`repro.energy.epi.LATENCY_CYCLES`).
        """
        try:
            return self.__dict__["_cost_memo"][category]
        except KeyError:
            return self._memo(
                category,
                lambda: Cost(
                    self.epi.epi(category),
                    LATENCY_CYCLES.get(category, 1) * self.config.cycle_ns,
                ),
            )

    def access_cost(self, access: Access) -> Cost:
        """Cost of a performed load/store as priced by the hierarchy."""
        return Cost(access.energy_nj, access.latency_ns)

    def load_cost_at(self, level: Level) -> Cost:
        """Cost of a load serviced at *level* (estimation, oracles)."""
        return Cost(
            self.config.load_energy_nj(level), self.config.load_latency_ns(level)
        )

    # ------------------------------------------------------------------
    # Amnesic events (paper section 4 modelling choices).
    # ------------------------------------------------------------------
    def rcmp_cost(self) -> Cost:
        """RCMP overhead, modelled after a conditional branch."""
        return self._memo(
            "rcmp",
            lambda: Cost(self.epi.epi(Category.BRANCH), self.config.cycle_ns),
        )

    def rec_cost(self) -> Cost:
        """REC overhead, modelled after a store to L1-D."""
        return self._memo(
            "rec",
            lambda: Cost(
                self.config.l1_params.write_energy_nj,
                self.config.l1_params.latency_ns,
            ),
        )

    def rtn_cost(self) -> Cost:
        """RTN overhead, modelled after a jump."""
        return self._memo(
            "rtn",
            lambda: Cost(self.epi.epi(Category.JUMP), self.config.cycle_ns),
        )

    def hist_read_cost(self) -> Cost:
        """One Hist read, conservatively modelled after L1-D."""
        return self._memo(
            "hist_read",
            lambda: Cost(
                self.config.l1_params.read_energy_nj,
                self.config.l1_params.latency_ns,
            ),
        )

    def slice_instruction_cost(self, category: Category) -> Cost:
        """Cost of one recomputing instruction.

        Latency per recomputing instruction "remains very similar to its
        classic counterpart" (paper section 3.5): category EPI + cycle,
        plus the SFile traffic of its operands.
        """
        def build():
            base = self.compute_cost(category)
            return Cost(base.energy_nj + SFILE_ACCESS_NJ, base.time_ns)

        return self._memo(("slice", category), build)

    # ------------------------------------------------------------------
    # Estimation helpers for the compiler's probabilistic model.
    # ------------------------------------------------------------------
    def probabilistic_load_cost(self, level_probabilities) -> Cost:
        """E_ld as sum over levels of Pr(level) x per-level cost."""
        energy = 0.0
        time = 0.0
        for level, probability in level_probabilities.items():
            energy += probability * self.config.load_energy_nj(level)
            time += probability * self.config.load_latency_ns(level)
        return Cost(energy, time)
