"""Shared fixtures, Hypothesis profiles, and kernel helpers."""

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.energy import EPITable, EnergyModel
from repro.isa import Opcode, ProgramBuilder
from repro.machine import CacheGeometry, MachineConfig
from repro.machine.config import (
    PAPER_L1_PARAMS,
    PAPER_L2_PARAMS,
    PAPER_MEM_PARAMS,
)

# ----------------------------------------------------------------------
# Hypothesis profiles, selected via HYPOTHESIS_PROFILE.
#
# ``ci`` (the default) removes the per-example deadline — shared CI
# runners stall unpredictably and a deadline flake tells us nothing —
# and derandomizes so a red CI run reproduces locally from the same
# examples.  ``nightly`` spends real time searching: many examples,
# fresh entropy each run.  ``dev`` keeps Hypothesis's exploratory
# defaults minus the deadline for interactive work.
# ----------------------------------------------------------------------
settings.register_profile("ci", deadline=None, derandomize=True)
settings.register_profile(
    "nightly",
    deadline=None,
    max_examples=500,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


def tiny_config() -> MachineConfig:
    """A very small hierarchy so tests exercise misses cheaply."""
    return MachineConfig(
        l1_geometry=CacheGeometry(total_lines=4, associativity=2, line_words=4),
        l2_geometry=CacheGeometry(total_lines=16, associativity=4, line_words=4),
        l1_params=PAPER_L1_PARAMS,
        l2_params=PAPER_L2_PARAMS,
        mem_params=PAPER_MEM_PARAMS,
    )


@pytest.fixture
def model() -> EnergyModel:
    """Energy model over the tiny test hierarchy."""
    return EnergyModel(epi=EPITable.default(), config=tiny_config())


@pytest.fixture
def harness_model() -> EnergyModel:
    """The harness-scale model (used by calibration-sensitive tests)."""
    from repro.energy import paper_energy_model

    return paper_energy_model()


def build_spill_kernel(iterations: int = 24, chain: int = 3, gap: int = 12,
                       name: str = "spill_kernel"):
    """A canonical spill/reload kernel most compiler tests share.

    Per iteration: derive a value through a *chain*, spill it to a
    line-aligned slot, stream a *gap* of read-only background words, and
    reload the slot.  The reload is swappable; its slice is the chain.
    """
    b = ProgramBuilder(name)
    background = b.data(list(range(256)), read_only=True)
    slots = b.reserve(64)
    r_bg, r_slot, seed, t, addr, gap_v, sink = b.regs(
        "bg", "slot", "seed", "t", "addr", "gapv", "sink"
    )
    b.li(r_bg, background)
    b.li(r_slot, slots)
    b.li(sink, 0)
    with b.loop("i", 0, iterations) as i:
        b.mul(seed, i, 2654435761)
        b.op(Opcode.MOV, t, seed)
        for step in range(chain - 1):
            b.op(Opcode.XOR if step % 2 else Opcode.MUL, t, t, 37 + step)
        b.mul(addr, i, 8)
        b.op(Opcode.AND, addr, addr, 63)
        b.add(addr, addr, r_slot)
        b.st(t, addr)
        with b.loop("j", 0, gap) as j:
            b.mul(gap_v, i, gap)
            b.add(gap_v, gap_v, j)
            b.op(Opcode.AND, gap_v, gap_v, 255)
            b.add(gap_v, gap_v, r_bg)
            b.ld(gap_v, gap_v)
            b.add(sink, sink, gap_v)
        b.mul(addr, i, 8)
        b.op(Opcode.AND, addr, addr, 63)
        b.add(addr, addr, r_slot)
        b.ld(t, addr)
        b.add(sink, sink, t)
    out = b.reserve(1)
    r_out = b.reg("out")
    b.li(r_out, out)
    b.st(sink, r_out)
    return b.build()


def build_accumulator_kernel(iterations: int = 16, name: str = "acc_kernel"):
    """Accumulator spilled to one fixed slot and reloaded each iteration."""
    b = ProgramBuilder(name)
    slot = b.reserve(1)
    r_slot, acc, tmp = b.regs("slot", "acc", "tmp")
    b.li(r_slot, slot)
    b.li(acc, 7)
    with b.loop("i", 0, iterations) as i:
        b.add(acc, acc, i)
        b.mul(acc, acc, 3)
        b.st(acc, r_slot)
        b.mul(tmp, i, 5)
        b.add(tmp, tmp, 1)
        b.ld(acc, r_slot)
        b.add(acc, acc, tmp)
    out = b.reserve(1)
    r_out = b.reg("out")
    b.li(r_out, out)
    b.st(acc, r_out)
    return b.build()


def traced_cpu(cpu_cls, program, model, max_instructions):
    """Run *program* under a fresh dependence tracker, ``cpu.tracer``.

    Returns ``(cpu, fault)``: the fault the run ended on as
    ``(type name, message, pc)``, or None when it halted.
    """
    from repro.errors import ReproError
    from repro.trace import DependenceTracker

    cpu = cpu_cls(
        program, model, tracer=DependenceTracker(), max_instructions=max_instructions
    )
    try:
        cpu.run()
    except ReproError as caught:
        return cpu, (type(caught).__name__, str(caught), caught.pc)
    return cpu, None


def traced_run(cpu_cls, program, model, max_instructions):
    """``(tracker, fault)`` of a :func:`traced_cpu` run."""
    cpu, fault = traced_cpu(cpu_cls, program, model, max_instructions)
    return cpu.tracer, fault


def trace_divergence(expected, actual, program):
    """The first query two dependence trackers answer differently, or None.

    Compares the pc and result columns, which pcs of *program* retired,
    the static table in first-retirement order, execution counts in that
    order, each register's writers and value writers, and every memory
    access.  A record is a function of exactly these (its producers
    bisect the writers, and the values it read are their results), so
    equal columns mean equal records.
    """
    if len(actual) != len(expected):
        return f"{len(actual)} records, expected {len(expected)}"

    def columns(tracker):
        return tracker._pcs, tracker._results

    for name, have, want in zip(
        ("pcs", "results"), columns(actual), columns(expected)
    ):
        if have != want:
            index = next(
                i for i, (h, w) in enumerate(zip(have, want))
                if h is not w and h != w
            )
            return f"{name} differ at {index}: {have[index]!r} != {want[index]!r}"

    def static(tracker):
        return [
            (info.pc, info.opcode, info.dest, info.srcs, info.writes_value,
             list(info.instances))
            for info in tracker.static_pcs()
        ]

    def retired(tracker):
        return [tracker.pc_info(pc) is not None for pc in range(len(program))]

    def registers(tracker):
        return [
            (list(tracker.writers(reg)), list(tracker.value_writers(reg)))
            for reg in range(32)
        ]

    def accesses(tracker):
        return [
            (index, info.pc, address, level, producer)
            for index, info, address, level, producer in tracker.memory_accesses()
        ]

    for query in (static, retired, registers, accesses):
        if query(actual) != query(expected):
            return f"{query.__name__} differ"
    if list(actual.execution_counts().items()) != list(
        expected.execution_counts().items()
    ):
        return "execution counts differ"
    return None
