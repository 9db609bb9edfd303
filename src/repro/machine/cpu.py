"""The classic in-order CPU interpreter.

:class:`CPU` executes a program under *classic* execution semantics:
every load walks the memory hierarchy, every instruction is priced by
the energy model, and an optional tracer observes each retired
instruction.  The amnesic machine (:mod:`repro.core.amnesic_cpu`)
subclasses this interpreter and overrides only the handling of the three
amnesic opcodes, so classic and amnesic execution share all value,
memory, and pricing semantics — exactly the "equivalent to classic
execution" baseline the paper defines (section 2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Union

from ..energy.account import (
    GROUP_LOAD,
    GROUP_NONMEM,
    GROUP_STORE,
    GROUP_WRITEBACK,
    EnergyAccount,
)

if TYPE_CHECKING:  # avoid a circular import: energy.model depends on machine
    from ..energy.model import EnergyModel
from ..errors import ExecutionLimitExceeded, MachineFault
from ..isa.instructions import Instruction
from ..isa.opcodes import Category, Opcode
from ..isa.operands import Imm, Operand, Reg
from ..isa.program import Program
from ..isa.semantics import branch_taken, evaluate
from ..telemetry.profiler import TAIL_KEY
from ..telemetry.runtime import get_telemetry
from ..trace.events import InstructionEvent
from .hierarchy import MemoryHierarchy
from .memory import Memory
from .stats import RunStats

Value = Union[int, float]

#: Default dynamic-instruction budget; exceeded means livelock.
DEFAULT_MAX_INSTRUCTIONS = 5_000_000


class CPU:
    """In-order interpreter with energy/timing accounting."""

    #: Distinguishes ``execute.classic`` / ``execute.amnesic`` telemetry.
    TELEMETRY_LABEL = "classic"

    def __init__(
        self,
        program: Program,
        model: "EnergyModel",
        tracer=None,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    ):
        self.program = program
        self.model = model
        self.tracer = tracer
        self.max_instructions = max_instructions
        self.memory = Memory(program.data)
        self.hierarchy = MemoryHierarchy(model.config)
        self.registers: List[Value] = [0] * 32
        self.account = EnergyAccount()
        self.stats = RunStats()
        self.pc = 0
        self.halted = False
        self._dynamic_index = 0
        self._charged_writeback_nj = 0.0
        #: Windowed timeline track, attached by the telemetry runtime at
        #: run start; None (one pointer check per retired instruction)
        #: whenever telemetry is off or no timeline was requested.
        self._timeline = None
        #: Per-opcode dispatch table of bound handlers; building it here
        #: binds subclass overrides (e.g. the amnesic opcodes).
        self._dispatch = self._build_dispatch()

    def _build_dispatch(self):
        """Opcode -> bound handler, replacing an if/elif chain per dispatch."""
        dispatch = {}
        for opcode in Opcode:
            category = opcode.category
            if category.is_compute:
                handler = self._execute_compute
            elif opcode is Opcode.LD:
                handler = self._execute_load
            elif opcode is Opcode.ST:
                handler = self._execute_store
            elif category is Category.BRANCH:
                handler = self._execute_branch
            elif opcode is Opcode.JMP:
                handler = self._execute_jmp
            elif opcode is Opcode.JAL:
                handler = self._execute_jal
            elif opcode is Opcode.JR:
                handler = self._execute_jr
            elif opcode is Opcode.NOP:
                handler = self._execute_nop
            elif opcode is Opcode.HALT:
                handler = self._execute_halt
            elif category is Category.AMNESIC:
                handler = self._execute_amnesic
            else:  # pragma: no cover - the mapping above is exhaustive
                continue
            dispatch[opcode] = handler
        return dispatch

    # ------------------------------------------------------------------
    # Operand plumbing.
    # ------------------------------------------------------------------
    def resolve(self, operand: Operand) -> Value:
        """Resolve an operand to its current value."""
        if isinstance(operand, Reg):
            return 0 if operand.index == 0 else self.registers[operand.index]
        if isinstance(operand, Imm):
            return operand.value
        raise MachineFault(
            f"operand {operand} is not valid under classic execution", pc=self.pc
        )

    def write_register(self, reg: Reg, value: Value) -> None:
        """Write an architectural register (writes to r0 are discarded)."""
        if reg.index != 0:
            self.registers[reg.index] = value

    def effective_address(self, base: Operand, offset: Operand) -> int:
        """Compute and validate an effective word address."""
        base_value = self.resolve(base)
        offset_value = self.resolve(offset)
        address = base_value + offset_value
        if isinstance(address, float):
            if not address.is_integer():
                raise MachineFault(
                    f"non-integer effective address {address}", pc=self.pc
                )
            address = int(address)
        return address

    # ------------------------------------------------------------------
    # Execution loop.
    # ------------------------------------------------------------------
    def run(self) -> RunStats:
        """Execute until HALT; return the run statistics."""
        telemetry = get_telemetry()
        profiler = telemetry.active_profiler()
        self._timeline = telemetry.open_timeline(self)
        # Instrumented runs (tracer events, timeline sampling, hot-loop
        # profiling) take per-instruction fallback loops; the ``mode``
        # attribute lets trace readers tell their spans apart from
        # untraced execution.
        traced = (
            profiler is not None
            or self.tracer is not None
            or self._timeline is not None
        )
        with telemetry.span(
            f"execute.{self.TELEMETRY_LABEL}",
            mode="traced" if traced else "untraced",
        ) as span:
            try:
                if profiler is None:
                    self._run_loop()
                else:
                    self._run_loop_profiled(profiler)
            finally:
                if self._timeline is not None:
                    self._timeline.close(self._dynamic_index)
                    self._timeline = None
            span.set(
                instructions=self._dynamic_index,
                energy_nj=round(self.account.total_energy_nj, 3),
                time_ns=round(self.account.total_time_ns, 3),
            )
        telemetry.publish_run_stats(self.stats, run=self.TELEMETRY_LABEL)
        if telemetry.enabled:
            telemetry.counter("run.energy_nj", run=self.TELEMETRY_LABEL).inc(
                self.account.total_energy_nj
            )
            telemetry.counter("run.time_ns", run=self.TELEMETRY_LABEL).inc(
                self.account.total_time_ns
            )
        return self.stats

    def _run_loop(self) -> None:
        """The plain dispatch loop (no profiler attached)."""
        while not self.halted:
            self.step()
        self.finalize()

    def _run_loop_profiled(self, profiler) -> None:
        """Dispatch loop with per-opcode wall/instruction/energy sampling.

        Records at every ``sample_every``-th dispatch; the recorded
        deltas telescope, so profile totals stay exact at any stride
        (see :mod:`repro.telemetry.profiler`).
        """
        profiler.runs += 1
        clock = profiler.clock
        label = self.TELEMETRY_LABEL
        stride = profiler.sample_every
        pending = stride
        account = self.account
        last_t = clock()
        last_d = self._dynamic_index
        last_e = account.total_energy_nj
        opcode_name = None
        while not self.halted:
            self._check_budget()
            try:
                instruction = self.program.instruction_at(self.pc)
            except IndexError:
                raise MachineFault(
                    "pc ran off the end of the program", pc=self.pc
                ) from None
            opcode_name = instruction.opcode.value
            self.execute(instruction)
            pending -= 1
            if pending == 0:
                pending = stride
                now = clock()
                energy = account.total_energy_nj
                profiler.record(
                    label,
                    opcode_name,
                    now - last_t,
                    self._dynamic_index - last_d,
                    energy - last_e,
                )
                last_t, last_d, last_e = now, self._dynamic_index, energy
        if pending != stride and opcode_name is not None:
            # Flush the partial tail so instruction/energy totals stay
            # exact.  The window covers up to stride-1 *different*
            # opcodes, so attributing it to the last dispatched one would
            # skew per-opcode shares at large strides; it gets its own
            # synthetic row instead.
            now = clock()
            energy = account.total_energy_nj
            profiler.record(
                label, TAIL_KEY, now - last_t,
                self._dynamic_index - last_d, energy - last_e,
            )
            last_t, last_e = now, energy
        before = account.total_energy_nj
        start = clock()
        self.finalize()
        profiler.record_finalize(
            label, clock() - start, account.total_energy_nj - before
        )

    def _check_budget(self) -> None:
        """Raise once the dynamic-instruction budget is exhausted.

        Shared by every dispatch loop *and* :meth:`step`, so
        single-stepping callers and alternative backends enforce the same
        livelock limit as ``run()``.
        """
        if self._dynamic_index >= self.max_instructions:
            raise ExecutionLimitExceeded(
                f"exceeded {self.max_instructions} dynamic instructions",
                pc=self.pc,
            )

    def step(self) -> None:
        """Execute one instruction at the current pc."""
        self._check_budget()
        try:
            instruction = self.program.instruction_at(self.pc)
        except IndexError:
            raise MachineFault("pc ran off the end of the program", pc=self.pc) from None
        self.execute(instruction)

    def finalize(self) -> None:
        """Charge deferred costs (dirty write-backs) once, idempotently."""
        pending = self.hierarchy.stats.writeback_energy_nj - self._charged_writeback_nj
        if pending > 0:
            self.account.charge_energy_only(GROUP_WRITEBACK, pending)
            self._charged_writeback_nj += pending

    # ------------------------------------------------------------------
    # Dispatch.
    # ------------------------------------------------------------------
    def execute(self, instruction: Instruction) -> None:
        """Execute *instruction*, advance pc, account, and trace."""
        self.stats.count_instruction(instruction.opcode.category)
        handler = self._dispatch.get(instruction.opcode)
        if handler is None:  # pragma: no cover - the table is exhaustive
            raise MachineFault(f"undecodable instruction {instruction}", pc=self.pc)
        handler(instruction)

    def _execute_jmp(self, instruction: Instruction) -> None:
        self._emit(instruction)
        self.account.charge(GROUP_NONMEM, self.model.compute_cost(Category.JUMP))
        self.pc = self.program.pc_of(instruction.target)

    def _execute_jal(self, instruction: Instruction) -> None:
        # Call: store the return pc in the link register, then jump.
        return_pc = self.pc + 1
        self.write_register(instruction.dest, return_pc)
        self._emit(instruction, result=return_pc)
        self.account.charge(GROUP_NONMEM, self.model.compute_cost(Category.JUMP))
        self.pc = self.program.pc_of(instruction.target)

    def _execute_jr(self, instruction: Instruction) -> None:
        target = self.resolve(instruction.srcs[0])
        limit = len(self.program.instructions)
        # target == limit is rejected *here*: letting it through would
        # only die on the next fetch with a misleading "ran off the end"
        # fault attributed to the wrong pc.
        if not isinstance(target, int) or not 0 <= target < limit:
            raise MachineFault(
                f"jump-register {instruction} to invalid pc {target!r} "
                f"(valid pcs are 0..{limit - 1})",
                pc=self.pc,
            )
        self._emit(instruction, operand_values=(target,))
        self.account.charge(GROUP_NONMEM, self.model.compute_cost(Category.JUMP))
        self.pc = target

    def _execute_nop(self, instruction: Instruction) -> None:
        self._emit(instruction)
        self.account.charge(GROUP_NONMEM, self.model.compute_cost(Category.NOP))
        self.pc += 1

    def _execute_halt(self, instruction: Instruction) -> None:
        self._emit(instruction)
        self.halted = True

    def _execute_compute(self, instruction: Instruction) -> None:
        values = tuple(self.resolve(src) for src in instruction.srcs)
        try:
            result = evaluate(instruction.opcode, values)
        except MachineFault as fault:
            raise type(fault)(str(fault), pc=self.pc) from None
        if not isinstance(instruction.dest, Reg):
            raise MachineFault(
                f"compute instruction without register destination: {instruction}",
                pc=self.pc,
            )
        self.write_register(instruction.dest, result)
        self.account.charge(GROUP_NONMEM, self.model.compute_cost(instruction.category))
        self._emit(instruction, operand_values=values, result=result)
        self.pc += 1

    def _execute_load(self, instruction: Instruction) -> None:
        address = self.effective_address(instruction.srcs[0], instruction.srcs[1])
        value = self.memory.read(address)
        access = self.hierarchy.load(address)
        self.account.charge(GROUP_LOAD, self.model.access_cost(access))
        self.stats.loads_performed += 1
        self.write_register(instruction.dest, value)
        self._emit(
            instruction, result=value, address=address, level=access.level
        )
        self.pc += 1

    def _execute_store(self, instruction: Instruction) -> None:
        value = self.resolve(instruction.srcs[0])
        address = self.effective_address(instruction.srcs[1], instruction.srcs[2])
        self.memory.write(address, value)
        access = self.hierarchy.store(address)
        self.account.charge(GROUP_STORE, self.model.access_cost(access))
        self.stats.stores_performed += 1
        self._emit(
            instruction, operand_values=(value,), address=address, level=access.level
        )
        self.pc += 1

    def _execute_branch(self, instruction: Instruction) -> None:
        a = self.resolve(instruction.srcs[0])
        b = self.resolve(instruction.srcs[1])
        taken = branch_taken(instruction.opcode, a, b)
        self.account.charge(GROUP_NONMEM, self.model.compute_cost(Category.BRANCH))
        self._emit(instruction, operand_values=(a, b), taken=taken)
        if taken:
            self.stats.branches_taken += 1
            self.pc = self.program.pc_of(instruction.target)
        else:
            self.pc += 1

    def _execute_amnesic(self, instruction: Instruction) -> None:
        """Classic execution does not understand amnesic opcodes."""
        raise MachineFault(
            f"amnesic instruction {instruction.opcode.value} on a classic CPU",
            pc=self.pc,
        )

    # ------------------------------------------------------------------
    # Tracing.
    # ------------------------------------------------------------------
    def _emit(
        self,
        instruction: Instruction,
        operand_values=(),
        result=None,
        address=None,
        level=None,
        taken=None,
    ) -> None:
        index = self._dynamic_index
        self._dynamic_index += 1
        timeline = self._timeline
        if timeline is not None and self._dynamic_index >= timeline.next_capture:
            timeline.capture(self._dynamic_index)
        if self.tracer is None:
            return
        self.tracer.on_instruction(
            InstructionEvent(
                index=index,
                pc=self.pc,
                instruction=instruction,
                operand_values=operand_values,
                result=result,
                address=address,
                level=level,
                taken=taken,
            )
        )

    @property
    def dynamic_count(self) -> int:
        """Number of retired dynamic instructions."""
        return self._dynamic_index

    # ------------------------------------------------------------------
    # Timeline observability.
    # ------------------------------------------------------------------
    def observe(self) -> dict:
        """Flat snapshot of run counters and hierarchy pressure.

        The telemetry timeline sampler polls this at window boundaries
        only; the amnesic CPU extends it with SFile/Hist/IBuff series.
        """
        snapshot = {
            "instructions": self._dynamic_index,
            "loads": self.stats.loads_performed,
            "stores": self.stats.stores_performed,
            "branches_taken": self.stats.branches_taken,
            "energy_nj": self.account.total_energy_nj,
        }
        for name, value in self.hierarchy.observe().items():
            snapshot[name] = value
        return snapshot
