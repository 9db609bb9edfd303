"""The classic in-order CPU interpreter.

:class:`CPU` executes a program under *classic* execution semantics:
every load walks the memory hierarchy, every instruction is priced by
the energy model, and an optional tracer (the profiling run's
:class:`~repro.trace.dependence.DependenceTracker`) receives each
retired instruction through its ``retire`` method.  The amnesic
machine (:mod:`repro.core.amnesic_cpu`) subclasses this interpreter and
overrides only the handling of the three amnesic opcodes, so classic
and amnesic execution share all value, memory, and pricing semantics —
exactly the "equivalent to classic execution" baseline the paper
defines (section 2).
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
from ..isa.opcodes import _OPCODE_CATEGORY, Category, Opcode
from ..isa.operands import Imm, Operand, Reg
from ..isa.program import Program
from ..isa.semantics import branch_taken, evaluate
from ..telemetry.profiler import RunSampler
from ..telemetry.runtime import get_telemetry
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
        #: The control instructions' prices, fixed for the model's
        #: lifetime: looked up once per CPU, not once per instruction.
        self._branch_cost = model.compute_cost(Category.BRANCH)
        self._jump_cost = model.compute_cost(Category.JUMP)
        self._nop_cost = model.compute_cost(Category.NOP)

    def __getstate__(self):
        # The base of the ``__getstate__`` chain: subclasses drop what
        # cannot leave the process from this copy.  ``object`` has no
        # ``__getstate__`` before Python 3.11.
        return dict(self.__dict__)

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
    #
    # The hot handlers read their operands inline: a register reads
    # ``registers[index]`` (r0 reads 0), an immediate its value, and any
    # other kind goes through :meth:`resolve`, which faults on it.
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
        registers = self.registers
        if type(base) is Reg:
            base_value = registers[base.index] if base.index else 0
        else:
            base_value = self.resolve(base)
        if type(offset) is Imm:
            offset_value = offset.value
        elif type(offset) is Reg:
            offset_value = registers[offset.index] if offset.index else 0
        else:
            offset_value = self.resolve(offset)
        try:
            address = base_value + offset_value
        except OverflowError:
            # A float meets an int beyond the double range, which
            # converts to +-inf (see isa.semantics): FADD's sum.
            address = evaluate(Opcode.FADD, (base_value, offset_value))
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
        """Execute until HALT; return the run statistics.

        Every run, profiled or not, retires through :meth:`_run_loop`
        and then finalizes once.  Under a hot-loop profiler the run
        swaps in, for itself only, a dispatch table whose handlers
        sample (see :class:`~repro.telemetry.profiler.RunSampler`), so a
        profiled run executes the loop that stepping parity and the
        oracle check.
        """
        telemetry = get_telemetry()
        profiler = telemetry.active_profiler()
        self._timeline = telemetry.open_timeline(self)
        # Instrumented runs (dependence tracing, timeline sampling,
        # hot-loop profiling) may take slower paths; the ``mode``
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
            sampler = None if profiler is None else RunSampler(profiler, self)
            try:
                self._run_loop()
            finally:
                if sampler is not None:
                    sampler.detach()
                if self._timeline is not None:
                    self._timeline.close(self._dynamic_index)
                    self._timeline = None
            if sampler is not None:
                sampler.tail()
            self.finalize()
            if sampler is not None:
                sampler.finalized()
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
        """The run loop: :meth:`step` inlined until ``HALT``.

        The budget check, the fetch with its off-end fault, the count
        before execute and the dispatch run in the loop, over the
        program's instructions, the dispatch table and the stats bound
        once per run, so each retired instruction costs one call, its
        handler.  :meth:`run` finalizes.
        """
        instructions = self.program.instructions
        dispatch = self._dispatch
        stats = self.stats
        by_category = stats.by_category
        max_instructions = self.max_instructions
        while not self.halted:
            pc = self.pc
            if self._dynamic_index >= max_instructions:
                raise ExecutionLimitExceeded(
                    f"exceeded {max_instructions} dynamic instructions", pc=pc
                )
            try:
                instruction = instructions[pc]
            except IndexError:
                raise MachineFault(
                    "pc ran off the end of the program", pc=pc
                ) from None
            opcode = instruction.opcode
            stats.dynamic_instructions += 1
            by_category[_OPCODE_CATEGORY[opcode]] += 1
            try:
                handler = dispatch[opcode]
            except KeyError:  # pragma: no cover - the table is exhaustive
                raise MachineFault(
                    f"undecodable instruction {instruction}", pc=pc
                ) from None
            handler(instruction)

    def step(self) -> None:
        """Execute one instruction at the current pc: the single-step API.

        The budget check, the fetch, the count before execute and the
        dispatch, as :meth:`_run_loop` makes them per instruction.
        """
        pc = self.pc
        if self._dynamic_index >= self.max_instructions:
            raise ExecutionLimitExceeded(
                f"exceeded {self.max_instructions} dynamic instructions", pc=pc
            )
        try:
            instruction = self.program.instructions[pc]
        except IndexError:
            raise MachineFault("pc ran off the end of the program", pc=pc) from None
        opcode = instruction.opcode
        self.stats.count_instruction(_OPCODE_CATEGORY[opcode])
        handler = self._dispatch.get(opcode)
        if handler is None:  # pragma: no cover - the table is exhaustive
            raise MachineFault(f"undecodable instruction {instruction}", pc=pc)
        handler(instruction)

    def finalize(self) -> None:
        """Charge deferred costs (dirty write-backs) once, idempotently."""
        pending = self.hierarchy.stats.writeback_energy_nj - self._charged_writeback_nj
        if pending > 0:
            self.account.charge_energy_only(GROUP_WRITEBACK, pending)
            self._charged_writeback_nj += pending

    # ------------------------------------------------------------------
    # Dispatch.
    # ------------------------------------------------------------------
    def _execute_jmp(self, instruction: Instruction) -> None:
        self._emit(instruction)
        self.account.charge(GROUP_NONMEM, self._jump_cost)
        self.pc = self.program.pc_of(instruction.target)

    def _execute_jal(self, instruction: Instruction) -> None:
        # Call: store the return pc in the link register, then jump.
        return_pc = self.pc + 1
        self.write_register(instruction.dest, return_pc)
        self._emit(instruction, return_pc)
        self.account.charge(GROUP_NONMEM, self._jump_cost)
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
        self._emit(instruction)
        self.account.charge(GROUP_NONMEM, self._jump_cost)
        self.pc = target

    def _execute_nop(self, instruction: Instruction) -> None:
        self._emit(instruction)
        self.account.charge(GROUP_NONMEM, self._nop_cost)
        self.pc += 1

    def _execute_halt(self, instruction: Instruction) -> None:
        self._emit(instruction)
        self.halted = True

    def _execute_compute(self, instruction: Instruction) -> None:
        registers = self.registers
        values = []
        for src in instruction.srcs:
            if type(src) is Reg:
                values.append(registers[src.index] if src.index else 0)
            elif type(src) is Imm:
                values.append(src.value)
            else:
                values.append(self.resolve(src))
        opcode = instruction.opcode
        try:
            result = evaluate(opcode, values)
        except MachineFault as fault:
            raise type(fault)(str(fault), pc=self.pc) from None
        dest = instruction.dest
        if not isinstance(dest, Reg):
            raise MachineFault(
                f"compute instruction without register destination: {instruction}",
                pc=self.pc,
            )
        if dest.index:
            registers[dest.index] = result
        self.account.charge(
            GROUP_NONMEM, self.model.compute_cost(_OPCODE_CATEGORY[opcode])
        )
        self._emit(instruction, result)
        self.pc += 1

    def _execute_load(self, instruction: Instruction) -> None:
        base, offset = instruction.srcs
        address = self.effective_address(base, offset)
        value = self.memory.read(address)
        access = self.hierarchy.load(address)
        self.account.charge(GROUP_LOAD, self.model.access_cost(access))
        self.stats.loads_performed += 1
        dest = instruction.dest
        if dest.index:
            self.registers[dest.index] = value
        self._emit(instruction, value, address, access.level)
        self.pc += 1

    def _execute_store(self, instruction: Instruction) -> None:
        src, base, offset = instruction.srcs
        if type(src) is Reg:
            value = self.registers[src.index] if src.index else 0
        else:
            value = self.resolve(src)
        address = self.effective_address(base, offset)
        self.memory.write(address, value)
        access = self.hierarchy.store(address)
        self.account.charge(GROUP_STORE, self.model.access_cost(access))
        self.stats.stores_performed += 1
        self._emit(instruction, None, address, access.level)
        self.pc += 1

    def _execute_branch(self, instruction: Instruction) -> None:
        registers = self.registers
        a, b = instruction.srcs
        if type(a) is Reg:
            a = registers[a.index] if a.index else 0
        else:
            a = self.resolve(a)
        if type(b) is Reg:
            b = registers[b.index] if b.index else 0
        elif type(b) is Imm:
            b = b.value
        else:
            b = self.resolve(b)
        taken = branch_taken(instruction.opcode, a, b)
        self.account.charge(GROUP_NONMEM, self._branch_cost)
        self._emit(instruction)
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
        self, instruction: Instruction, result=None, address=None, level=None
    ) -> None:
        index = self._dynamic_index
        self._dynamic_index += 1
        timeline = self._timeline
        if timeline is not None and self._dynamic_index >= timeline.next_capture:
            timeline.capture(self._dynamic_index)
        if self.tracer is None:
            return
        self.tracer.retire(index, self.pc, instruction, result, address, level)

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
