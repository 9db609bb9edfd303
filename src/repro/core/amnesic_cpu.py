"""The amnesic CPU: classic interpreter + recomputation machinery.

:class:`AmnesicCPU` extends the classic interpreter with the paper's
Figure 2 microarchitecture and the section 3.3 scheduler:

* ``REC`` records non-recomputable leaf inputs into the history table
  (step 0 in Figure 2) whenever the leaf's producer executes;
* ``RCMP`` resolves its branching condition through the configured
  runtime policy; on *fire* the slice is traversed through the
  Renamer/SFile with Hist-supplied leaf operands and the recomputed
  value is copied into the eliminated load's destination register; on
  *skip* (or on fallback, when a required checkpoint is missing or the
  slice's scratch demand exceeds the SFile) the load is performed
  classically;
* verification mode (default on) asserts that every recomputed value
  equals the value the eliminated load would have read — amnesic
  execution must be semantically invisible.
"""

from __future__ import annotations

from typing import Union

from ..compiler.annotate import AmnesicBinary, SliceInfo
from ..energy.account import GROUP_AMNESIC, GROUP_HIST, GROUP_LOAD, GROUP_NONMEM
from ..errors import ArithmeticFault, MachineFault, RecomputationMismatch
from ..isa.instructions import Instruction
from ..isa.opcodes import _OPCODE_CATEGORY, Opcode
from ..isa.operands import HistRef, Imm, Reg, SReg
from ..isa.semantics import evaluate
from ..machine.cpu import DEFAULT_MAX_INSTRUCTIONS, CPU
from ..telemetry.runtime import get_telemetry
from .hist import DEFAULT_HIST_CAPACITY, HistoryTable
from .ibuff import DEFAULT_IBUFF_CAPACITY, InstructionBuffer
from .policies import Decision, Policy, RcmpContext
from .sfile import DEFAULT_SFILE_CAPACITY, Renamer, SFile

Value = Union[int, float]


class AmnesicCPU(CPU):
    """Executes amnesic binaries under a runtime recomputation policy."""

    TELEMETRY_LABEL = "amnesic"

    def __init__(
        self,
        binary: AmnesicBinary,
        model,
        policy: Policy,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
        hist_capacity: int = DEFAULT_HIST_CAPACITY,
        sfile_capacity: int = DEFAULT_SFILE_CAPACITY,
        verify: bool = True,
        concurrent_offload: bool = False,
    ):
        super().__init__(binary.program, model, max_instructions=max_instructions)
        self.binary = binary
        self.policy = policy
        self.verify = verify
        #: Paper footnote 4 (future work): "offloading recomputation to
        #: spare or idle cores ... enabling concurrent recomputation".
        #: When set, slice-traversal latency is modelled as perfectly
        #: hidden by a helper core - energy is still paid - giving an
        #: upper bound on what concurrent recomputation could add.
        self.concurrent_offload = concurrent_offload
        self.hist = HistoryTable(hist_capacity)
        self.sfile = SFile(sfile_capacity)
        self.renamer = Renamer(self.sfile)
        self.ibuff = InstructionBuffer(DEFAULT_IBUFF_CAPACITY)
        #: The paper's ``recompute`` control flag: set while an RSlice is
        #: being traversed.
        self.recompute = False
        #: Slice ids that recomputed at least once (Table 5 bookkeeping).
        self.fired_slice_ids: set = set()

    def __getstate__(self):
        # Cached telemetry handles belong to this process's session.
        state = super().__getstate__()
        state.pop("_rcmp_meters", None)
        return state

    # ------------------------------------------------------------------
    # Timeline observability.
    # ------------------------------------------------------------------
    def observe(self) -> dict:
        """Classic run counters plus the amnesic structure snapshots."""
        snapshot = super().observe()
        for prefix, structure in (
            ("sfile", self.sfile),
            ("hist", self.hist),
            ("ibuff", self.ibuff),
        ):
            for name, value in structure.observe().items():
                snapshot[f"{prefix}.{name}"] = value
        stats = self.stats
        snapshot["rcmp.encountered"] = stats.rcmp_encountered
        snapshot["rcmp.fired"] = stats.recomputations_fired
        snapshot["rcmp.skipped"] = stats.recomputations_skipped
        snapshot["rcmp.fallbacks"] = stats.recomputation_fallbacks
        snapshot["slice.instructions"] = stats.slice_instructions_executed
        return snapshot

    # ------------------------------------------------------------------
    # Amnesic opcode dispatch.
    # ------------------------------------------------------------------
    def _build_dispatch(self):
        """The classic table, with each amnesic opcode's own handler."""
        dispatch = super()._build_dispatch()
        dispatch[Opcode.REC] = self._execute_rec
        dispatch[Opcode.RCMP] = self._execute_rcmp
        dispatch[Opcode.RTN] = self._execute_rtn
        return dispatch

    def _execute_rtn(self, instruction: Instruction) -> None:
        # RTN outside a slice traversal is a control-flow bug.
        raise MachineFault("RTN reached outside recomputation", pc=self.pc)

    def _execute_rec(self, instruction: Instruction) -> None:
        registers = self.registers
        values = []
        for src in instruction.srcs:
            if type(src) is Reg:
                values.append(registers[src.index] if src.index else 0)
            else:
                values.append(self.resolve(src))
        self.hist.record(instruction.slice_id, instruction.leaf_id, tuple(values))
        self.stats.hist_writes += 1
        self.account.charge(GROUP_AMNESIC, self.model.rec_cost())
        self._emit(instruction)
        self.pc += 1

    def _execute_rcmp(self, instruction: Instruction) -> None:
        self.stats.rcmp_encountered += 1
        rcmp_pc = self.pc
        info = self.binary.info_for(instruction.slice_id)
        address = self.effective_address(instruction.srcs[0], instruction.srcs[1])
        # RCMP itself is a fused conditional branch (paper section 4).
        self.account.charge(GROUP_AMNESIC, self.model.rcmp_cost())

        decision = self.policy.decide(
            RcmpContext(address, info, self.hierarchy, self.model)
        )
        if decision.fire and self._slice_ready(info):
            fired = self._fire_recomputation(instruction, info, address, decision)
            if fired:
                self._record_rcmp(
                    rcmp_pc, info, address, decision, "fired",
                    "policy fired; slice recomputed",
                )
                return
            # The traversal aborted (paper section 2.3: faults during
            # recomputation are recorded and deferred, never allowed to
            # corrupt architectural state); perform the load instead.
            self.stats.recomputation_fallbacks += 1
            self._record_rcmp(
                rcmp_pc, info, address, decision, "fallback",
                "slice traversal aborted on an arithmetic fault",
            )
            self._fallback_load(instruction, address, decision)
        else:
            if decision.fire:
                self.stats.recomputation_fallbacks += 1
                self._record_rcmp(
                    rcmp_pc, info, address, decision, "fallback",
                    "checkpoint missing from Hist or SFile demand exceeds capacity",
                )
            else:
                self.stats.recomputations_skipped += 1
                self._record_rcmp(
                    rcmp_pc, info, address, decision, "skipped",
                    "policy declined to fire",
                )
            self._fallback_load(instruction, address, decision)

    def _record_rcmp(
        self,
        rcmp_pc: int,
        info: SliceInfo,
        address: int,
        decision: Decision,
        outcome: str,
        reason: str,
    ) -> None:
        """Meter one RCMP and emit its decision record (free when telemetry is off).

        Counts the outcome and the policy's decision (``policy.*``).
        Called *before* any fallback load so the recorded residence level
        reflects the hierarchy state the scheduler actually saw, not the
        post-fill state.
        """
        telemetry = get_telemetry()
        if not telemetry.enabled:
            return
        # Instrument handles are stable per (policy, outcome) within one
        # telemetry session; resolving them through the registry's label
        # normalisation on every RCMP is pure overhead on the hot
        # scheduler path.  The cache is keyed by session identity so a
        # CPU reused under a different session re-resolves.
        meters = self.__dict__.get("_rcmp_meters")
        if meters is None or meters[0] is not telemetry:
            meters = self.__dict__["_rcmp_meters"] = (telemetry, {})
        instruments = meters[1]
        cached = instruments.get(outcome)
        if cached is None:
            cached = instruments[outcome] = (
                telemetry.counter(
                    "rcmp.outcomes", policy=self.policy.name, outcome=outcome
                ),
                telemetry.histogram(
                    "rcmp.slice_length", policy=self.policy.name, outcome=outcome
                ),
                telemetry.counter("rcmp.hist", state="hit"),
                telemetry.counter("rcmp.hist", state="miss"),
            )
        outcomes, lengths, hist_hit, hist_miss = cached
        outcomes.inc()
        lengths.observe(info.length)
        shape = (decision.fire, decision.probe_hit_level, decision.probe_cost is None)
        decided = instruments.get(shape)
        if decided is None:
            decided = instruments[shape] = self._decision_counters(telemetry, decision)
        for counter in decided:
            counter.inc()
        hist_ready = all(
            self.hist.has(info.slice_id, leaf_id) for leaf_id in info.hist_leaf_ids
        )
        (hist_hit if hist_ready else hist_miss).inc()
        if telemetry.sink is None:
            # No event sink: skip building the per-decision record (the
            # residence probe and field dict are only for the sink).
            return
        probe_hit = decision.probe_hit_level
        telemetry.event(
            "rcmp",
            pc=rcmp_pc,
            slice=info.slice_id,
            address=address,
            policy=self.policy.name,
            outcome=outcome,
            reason=reason,
            residence=self.hierarchy.residence(address).value,
            slice_len=info.length,
            hist_ready=hist_ready,
            sfile_ok=info.sreg_demand <= self.sfile.capacity,
            probe_hit=None if probe_hit is None else probe_hit.value,
        )

    def _decision_counters(self, telemetry, decision: Decision) -> list:
        """The ``policy.*`` counters a decision of this shape increments."""
        policy = self.policy.name
        verdict = "fire" if decision.fire else "skip"
        counters = [
            telemetry.counter("policy.decisions", policy=policy, verdict=verdict)
        ]
        if decision.probe_hit_level is not None:
            level = decision.probe_hit_level.value
            counters.append(
                telemetry.counter("policy.probe_hits", policy=policy, level=level)
            )
        elif decision.probe_cost is not None:
            counters.append(telemetry.counter("policy.probe_misses", policy=policy))
        return counters

    # ------------------------------------------------------------------
    # The two RCMP outcomes.
    # ------------------------------------------------------------------
    def _slice_ready(self, info: SliceInfo) -> bool:
        """Can this slice recompute right now?"""
        if info.sreg_demand > self.sfile.capacity:
            return False
        return all(
            self.hist.has(info.slice_id, leaf_id) for leaf_id in info.hist_leaf_ids
        )

    def _fire_recomputation(
        self,
        instruction: Instruction,
        info: SliceInfo,
        address: int,
        decision: Decision,
    ) -> bool:
        """Traverse the slice; returns False if the traversal aborted.

        A recomputing instruction may fault on checkpointed operands the
        original never combined (e.g. a division whose divisor was
        re-recorded as zero).  Paper section 2.3 defers exception
        handling past recomputation; since an aborted recomputation has
        touched only the scratch file, the safe deferral is to discard
        it and perform the inherited load.
        """
        if decision.probe_cost is not None:
            self.account.charge(GROUP_AMNESIC, decision.probe_cost)
        try:
            value = self._traverse_slice(info)
        except ArithmeticFault:
            self.stats.recomputation_aborts += 1
            return False
        residence = self.hierarchy.residence(address)
        self.stats.count_swapped_load(residence)
        self.fired_slice_ids.add(info.slice_id)
        if self.verify:
            expected = self.memory.read(address)
            if value != expected:
                raise RecomputationMismatch(
                    info.slice_id, expected=expected, actual=value, pc=self.pc
                )
        self.write_register(instruction.dest, value)
        self._emit(instruction)
        self.pc += 1
        return True

    def _fallback_load(
        self, instruction: Instruction, address: int, decision: Decision
    ) -> None:
        """Perform the classic load the RCMP inherited."""
        if decision.fire and decision.probe_cost is not None:
            # The probe missed everywhere but recomputation could not
            # proceed; the lookup energy is sunk on top of the load.
            self.account.charge(GROUP_AMNESIC, decision.probe_cost)
        value = self.memory.read(address)
        access = self.hierarchy.load(address)
        self.account.charge(GROUP_LOAD, self.model.access_cost(access))
        self.stats.loads_performed += 1
        self.write_register(instruction.dest, value)
        self._emit(instruction)
        self.pc += 1

    # ------------------------------------------------------------------
    # Slice traversal (paper section 3.3.2, "amnesic activity when
    # recompute is set").
    # ------------------------------------------------------------------
    def _charge_traversal(self, group: str, cost) -> None:
        """Charge a slice-traversal cost, hiding latency when offloaded."""
        if self.concurrent_offload:
            self.account.charge_energy_only(group, cost.energy_nj)
        else:
            self.account.charge(group, cost)

    def _traverse_slice(self, info: SliceInfo) -> Value:
        """The reference traversal, one slice instruction at a time.

        The ``fast-batched`` backend overrides this with one generated
        function per slice (:mod:`repro.machine.fastpath`), held to this
        path exactly by the backend-equivalence oracle.
        """
        region = self.program.slices[info.slice_id]
        self.recompute = True
        self.renamer.begin_slice()
        try:
            for slice_pc in range(region.start, region.end - 1):
                slice_instruction = self.program.instruction_at(slice_pc)
                self.ibuff.fetch(slice_pc)
                self._execute_slice_instruction(slice_instruction, info)
            rtn_instruction = self.program.instruction_at(region.end - 1)
            if rtn_instruction.opcode is not Opcode.RTN:
                raise MachineFault(
                    f"slice {info.slice_id} does not end in RTN", pc=region.end - 1
                )
            result = self.renamer.read(rtn_instruction.dest)
            self.stats.count_instruction(_OPCODE_CATEGORY[rtn_instruction.opcode])
            self._charge_traversal(GROUP_AMNESIC, self.model.rtn_cost())
            self._emit(rtn_instruction)
            return result
        finally:
            self.renamer.end_slice()
            self.recompute = False

    def _execute_slice_instruction(
        self, instruction: Instruction, info: SliceInfo
    ) -> None:
        category = _OPCODE_CATEGORY[instruction.opcode]
        self.stats.count_instruction(category)
        self.stats.slice_instructions_executed += 1
        operands = []
        for src in instruction.srcs:
            if isinstance(src, SReg):
                operands.append(self.renamer.read(src))
            elif isinstance(src, HistRef):
                value = self.hist.read(info.slice_id, src.leaf_id, src.slot)
                self._charge_traversal(GROUP_HIST, self.model.hist_read_cost())
                self.stats.hist_reads += 1
                operands.append(value)
            elif isinstance(src, Reg):
                operands.append(self.resolve(src))
            elif isinstance(src, Imm):
                operands.append(src.value)
            else:  # pragma: no cover - operand kinds are exhaustive
                raise MachineFault(f"bad slice operand {src}", pc=self.pc)
        result = evaluate(instruction.opcode, operands)
        if not isinstance(instruction.dest, SReg):
            raise MachineFault(
                f"recomputing instruction must write the scratch file: "
                f"{instruction}",
                pc=self.pc,
            )
        self.renamer.write(instruction.dest, result)
        self._charge_traversal(
            GROUP_NONMEM, self.model.slice_instruction_cost(category)
        )
        self._emit(instruction)
