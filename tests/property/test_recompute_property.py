"""The flagship property: amnesic execution is semantically invisible.

Hypothesis generates random produce/spill/reload kernels (random chain
opcodes and lengths, random spill slots, random clobbering, random gap
traffic); for every generated program, under every policy, the amnesic
run must (a) verify every recomputed value against the eliminated load
(the CPU raises on any mismatch) and (b) leave memory and registers
bit-identical to classic execution.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compiler import compile_amnesic
from repro.core.execution import run_amnesic, run_classic
from repro.energy import EPITable, EnergyModel
from repro.isa import Opcode, ProgramBuilder

from ..conftest import tiny_config

CHAIN_OPS = [Opcode.ADD, Opcode.MUL, Opcode.XOR, Opcode.SUB, Opcode.OR, Opcode.AND]


@st.composite
def kernel_programs(draw):
    iterations = draw(st.integers(min_value=3, max_value=10))
    chain = draw(st.lists(st.sampled_from(CHAIN_OPS), min_size=1, max_size=6))
    immediates = draw(
        st.lists(
            st.integers(min_value=1, max_value=2 ** 20),
            min_size=len(chain),
            max_size=len(chain),
        )
    )
    clobber_seed = draw(st.booleans())
    gap = draw(st.integers(min_value=0, max_value=8))
    slots = draw(st.sampled_from([1, 4, 16]))
    use_second_consumer = draw(st.booleans())

    b = ProgramBuilder("hypothesis_kernel")
    background = b.data(list(range(64)), read_only=True)
    region = b.reserve(slots * 8)
    r_bg, r_slot, seed, t, addr, v, sink = b.regs(
        "bg", "slot", "seed", "t", "addr", "v", "sink"
    )
    b.li(r_bg, background)
    b.li(r_slot, region)
    b.li(sink, 0)
    with b.loop("i", 0, iterations) as i:
        b.mul(seed, i, 2654435761)
        b.op(Opcode.MOV, t, seed)
        for opcode, imm in zip(chain, immediates):
            b.op(opcode, t, t, imm)
        b.mul(addr, i, 8)
        b.op(Opcode.AND, addr, addr, slots * 8 - 1)
        b.add(addr, addr, r_slot)
        b.st(t, addr)
        if clobber_seed:
            b.op(Opcode.XOR, seed, seed, 0x1234)
        if gap:
            with b.loop("j", 0, gap) as j:
                b.add(v, j, i)
                b.op(Opcode.AND, v, v, 63)
                b.add(v, v, r_bg)
                b.ld(v, v)
                b.add(sink, sink, v)
        b.mul(addr, i, 8)
        b.op(Opcode.AND, addr, addr, slots * 8 - 1)
        b.add(addr, addr, r_slot)
        b.ld(v, addr)
        b.add(sink, sink, v)
        if use_second_consumer:
            b.mul(addr, i, 8)
            b.op(Opcode.AND, addr, addr, slots * 8 - 1)
            b.add(addr, addr, r_slot)
            b.ld(t, addr)
            b.add(sink, sink, t)
    out = b.reserve(1)
    r_out = b.reg("out")
    b.li(r_out, out)
    b.st(sink, r_out)
    return b.build()


@settings(
    max_examples=settings.default.max_examples // 4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(kernel_programs())
def test_amnesic_execution_is_invisible(program):
    model = EnergyModel(epi=EPITable.default(), config=tiny_config())
    compilation = compile_amnesic(program, model)
    classic = run_classic(program, model)
    for policy in ("Compiler", "FLC", "C-Oracle"):
        # verify=True raises RecomputationMismatch on any wrong value.
        amnesic = run_amnesic(compilation, policy, model, verify=True)
        assert amnesic.cpu.memory.snapshot() == classic.cpu.memory.snapshot()
        assert amnesic.cpu.registers == classic.cpu.registers


@settings(
    max_examples=settings.default.max_examples // 10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(kernel_programs())
def test_tiny_hist_still_correct(program):
    """Pathological Hist pressure may only cause fallbacks, never wrong
    values or state divergence."""
    model = EnergyModel(epi=EPITable.default(), config=tiny_config())
    compilation = compile_amnesic(program, model)
    classic = run_classic(program, model)
    amnesic = run_amnesic(
        compilation, "Compiler", model, verify=True, hist_capacity=1
    )
    assert amnesic.cpu.memory.snapshot() == classic.cpu.memory.snapshot()
