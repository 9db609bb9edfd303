"""Classic-vs-fast-batched backend equivalence over generated programs.

``check_program(backend=...)`` runs each program's plain run and every
per-policy amnesic run on the backend under test and holds them to
classic runs of the same configuration: registers, the memory image,
stats, cache and amnesic-structure state, and the energy accounts must
match exactly, and a classic fault must reproduce with parity.  The
committed corpus replays through the same check in
``test_corpus_replay``; here seeded generated programs do, and a
campaign proves that ``run_fuzz`` finds and shrinks the fast-path twins
of :mod:`repro.fuzz.faults`.
"""

import pytest

from repro.errors import MachineFault, ReproError
from repro.fuzz import (
    FuzzConfig,
    check_program,
    default_fuzz_model,
    generate_specs,
    materialize,
    run_fuzz,
)
from repro.fuzz.faults import stale_load_lru, unprobed_l2
from repro.fuzz.oracle import _observable
from repro.isa import Imm, Opcode, Reg, alu, halt, load, store
from repro.isa.program import Program
from repro.machine import CPU, BatchedFastCPU

#: Fixed seed so CI failures reproduce locally from the same specs.
BACKEND_FUZZ_SEED = 0xA32E51AC

#: Every backend that must match classic bit-for-bit.
NON_CLASSIC_BACKENDS = ("fast-batched",)


@pytest.fixture(scope="module")
def model():
    return default_fuzz_model()


@pytest.mark.parametrize("backend", NON_CLASSIC_BACKENDS)
def test_seeded_backend_equivalence_round(backend, model):
    # Classic-vs-backend differential over generated programs, under
    # all five policies: each policy runs on both backends, and the
    # invariant families run on the backend's amnesic CPU.
    checked = 0
    for spec in generate_specs(BACKEND_FUZZ_SEED + 1, 10):
        try:
            program = materialize(spec)
        except ReproError:
            continue
        verdict = check_program(
            program, spec=spec, model=model, backend=backend
        )
        assert verdict.ok or (verdict.invalid and not verdict.failures), (
            f"{spec.name}: {verdict.summary()}"
        )
        checked += 1
    assert checked >= 5, "seed produced too few materializable specs"


def test_compilation_identical_across_profiling_backends(model):
    # The compiler's profiling run may execute on either backend: the
    # traced per-pc functions emit the classic event stream field for
    # field, so the dependence/load/locality profiles — and therefore
    # the compiled binary — must come out identical.
    from repro.compiler.amnesic_pass import compile_amnesic

    checked = 0
    for spec in generate_specs(BACKEND_FUZZ_SEED + 2, 8):
        try:
            program = materialize(spec)
        except ReproError:
            continue
        try:
            classic = compile_amnesic(program, model, backend="classic")
        except ReproError:
            continue  # uncompilable spec; backend choice is moot
        for backend in NON_CLASSIC_BACKENDS:
            fast = compile_amnesic(program, model, backend=backend)
            assert classic.swapped_load_pcs == fast.swapped_load_pcs, spec.name
            assert classic.rejected == fast.rejected, spec.name
            assert (
                classic.binary.program.instructions
                == fast.binary.program.instructions
            ), spec.name
            assert (
                classic.profile.stats.dynamic_instructions
                == fast.profile.stats.dynamic_instructions
            ), spec.name
        checked += 1
    assert checked >= 4, "seed produced too few compilable specs"


def test_backend_check_reports_fault_divergence_kind(model):
    # The failure channel itself: a program whose classic run faults
    # must produce a clean (fault-parity) verdict, not a crash.
    from repro.isa import ProgramBuilder

    b = ProgramBuilder()
    t = b.reg("t")
    b.li(t, 3)
    b.ret(t)
    b.halt()
    verdict = check_program(b.build(), model=model, backend="fast-batched")
    assert not verdict.failures  # both backends faulted identically
    assert verdict.invalid  # classic faulted; parity was still checked
    assert "jump-register" in (verdict.invalid_reason or "")


def conversion_program(name, *instructions):
    program = Program(name)
    for instruction in (*instructions, halt()):
        program.append(instruction)
    return program


def conversion_programs():
    """Programs whose values leave what the other number type can hold."""
    r1, r2, r3, r4 = (Reg(index) for index in (1, 2, 3, 4))
    return [
        conversion_program(
            "inf-to-int",
            alu(Opcode.LI, r1, Imm(1e308)),
            alu(Opcode.LI, r2, Imm(1e308)),
            alu(Opcode.FMUL, r3, r1, r2),
            alu(Opcode.CVTFI, r4, r3),
            alu(Opcode.ADD, r4, r4, Imm(1)),
        ),
        conversion_program(
            "big-int-to-float",
            alu(Opcode.LI, r1, Imm(10 ** 400)),
            alu(Opcode.FADD, r2, r1, Imm(1.0)),
        ),
        conversion_program(
            "big-int-address",
            alu(Opcode.LI, r1, Imm(10 ** 400)),
            load(r2, r1, Imm(1.0)),
        ),
        conversion_program(
            "big-negative-int-address",
            alu(Opcode.LI, r1, Imm(-(10 ** 400))),
            store(r2, r1, Imm(1.0)),
        ),
    ]


#: The fault a conversion program ends with; the others halt.
CONVERSION_FAULTS = {
    "big-int-address": "non-integer effective address inf (pc=1)",
    "big-negative-int-address": "non-integer effective address -inf (pc=1)",
}


@pytest.mark.parametrize("program", conversion_programs(), ids=lambda p: p.name)
def test_value_conversions_never_escape_as_python_errors(program, model):
    # NaN and +-inf convert to the integer-indefinite value and an int
    # beyond the double range to +-inf, on both backends alike; an
    # effective address that converts to +-inf is not an integer.
    outcomes = []
    for cls in (CPU, BatchedFastCPU):
        cpu = cls(program, model)
        try:
            cpu.run()
        except MachineFault as fault:
            outcomes.append((_observable(cpu), type(fault), str(fault)))
        else:
            assert cpu.halted
            outcomes.append((_observable(cpu), None, None))
    assert outcomes[0] == outcomes[1]
    expected = CONVERSION_FAULTS.get(program.name)
    assert outcomes[0][2] == expected
    for backend in ("fast-batched", "classic"):
        verdict = check_program(program, model=model, backend=backend)
        if expected is None:
            assert verdict.ok, verdict.summary()
        else:
            assert verdict.invalid and not verdict.failures, verdict.summary()


@pytest.mark.parametrize(
    "twin", (stale_load_lru, unprobed_l2), ids=lambda twin: twin.__name__
)
def test_campaign_finds_and_shrinks_a_fast_path_twin(twin, model):
    # Neither twin changes a register or a memory word, so only the
    # exact check against classic state can see them; a campaign on the
    # backend must find one and shrink it.
    config = FuzzConfig(
        seed=0, iterations=20, backend="fast-batched", max_counterexamples=1
    )
    with twin():
        result = run_fuzz(config, model=model)
    assert result.counterexamples, f"{twin.__name__} escaped the campaign"
    (cx,) = result.counterexamples
    assert cx.shrink_steps > 0
    assert len(materialize(cx.shrunk).instructions) < len(
        materialize(cx.original).instructions
    )
    assert {failure.kind for failure in cx.verdict.failures} == {"backend"}
