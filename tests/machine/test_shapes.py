"""Generated code by shape: one compile per shape, bound per program.

A per-pc function, a fused region, loop or slice compiles once per
*shape key*, computed before anything renders, and binds what is its
program's own (its pcs, register numbers, immediates, targets,
read-only bounds and Hist keys) as parameters.  So the key must
determine the source: a unit rendered from an empty cache must read
exactly the source of the code it binds from a warm one, with the same
own values, traced loops included (their key adds the trace flag and a
writer flag per element); and a per-pc key holds only what the source
reads, so no two per-pc keys render the same source.  Two programs that differ only
in pcs, registers and immediates bind the same code objects with their
own values and each still matches classic exactly; and
``shape_key_drops_literal()``, which writes an immediate into the
source while the key leaves it out, must be caught by the fast-batched
corpus replay, and on a pair of programs whose only differing immediate
sits in per-pc code.  Every fused region and loop source, traced or
not, leaves through one frame: one ``finally:`` that writes each
hoisted accumulator back once.
"""

import dataclasses
import re
from pathlib import Path
from types import CodeType

import pytest

from repro.compiler.amnesic_pass import compile_amnesic
from repro.core.amnesic_cpu import AmnesicCPU
from repro.core.backend import BatchedFastAmnesicCPU
from repro.core.execution import prepare_evaluation
from repro.core.policies import make_policy
from repro.energy import paper_energy_model
from repro.errors import ReproError
from repro.fuzz import (
    Produce,
    default_fuzz_model,
    load_corpus,
    load_entry,
    materialize,
)
from repro.fuzz.faults import shape_key_drops_literal
from repro.fuzz.oracle import _observable
from repro.fuzz.runner import replay_corpus
from repro.isa import Instruction, Opcode, ProgramBuilder, Reg
from repro.isa.program import Program
from repro.machine import CPU, BatchedFastCPU, fastpath
from repro.trace import DependenceTracker
from repro.workloads import all_specs

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

#: The kernels' binaries are planned, not run, so a small scale serves.
SCALE = 0.1


@pytest.fixture
def sources(monkeypatch):
    """The source of every shape compiled while the test runs, by code object.

    A compiled shape keeps only its code; this shadows the builtin
    ``compile`` in the code generator's module (as perfbench's layer
    timer does) and records what each compile was handed.  Code objects
    compare by content, so two that compare equal came from the same
    source up to layout.
    """
    compiled = {}

    def recording(source, filename, mode):
        module = compile(source, filename, mode)
        for code in module.co_consts:
            if isinstance(code, CodeType):
                compiled[code] = source
        return module

    monkeypatch.setattr(fastpath, "compile", recording, raising=False)
    return compiled


def planned_units(binary, model):
    """Every fused region, loop and slice of *binary*, planned as a CPU decodes it.

    Each slice is planned with and without ``concurrent_offload``.
    """
    cpu = BatchedFastAmnesicCPU(binary, model, make_policy("FLC"))
    table = cpu._decoded()
    program = binary.program
    plan = fastpath._plan(program)
    units = list(plan.fused_for(program, table.env))
    for slice_id in sorted(program.slices):
        for offload in (False, True):
            unit = plan.slice_for(
                program, slice_id, cpu.sfile.capacity, offload, table.env
            )
            if unit is not None:
                units.append(unit)
    return units


#: Own values that each decode makes for itself: an RCMP's slice cell
#: and the trace-column appends of a traced pc or traced loop element.
PER_DECODE = re.compile(r"_sc|_(lrn|inst|ina|wra)\d*")


def decode_every_per_pc_variant(binary, model):
    """Decode *binary* untraced under each RCMP probe depth and ``verify``, and traced.

    Compiler, FLC and LLC probe to depths 0, 1 and 2; the traced decode
    fuses the program's loops, traced.
    """
    for name in ("Compiler", "FLC", "LLC"):
        for verify in (False, True):
            policy = make_policy(name)
            BatchedFastAmnesicCPU(binary, model, policy, verify=verify)._decoded()
    BatchedFastCPU(binary.program, model, tracer=DependenceTracker())._decoded()


def decoded_units(binary, model, monkeypatch, sources):
    """``(source, own values)`` of every per-pc function and loop *binary*'s decodes bind.

    The decodes are :func:`decode_every_per_pc_variant`'s, in order;
    *sources* is the :func:`sources` fixture's record.
    """
    bound = []
    original = fastpath._bound

    def recording(shape, env, values=None, fns=()):
        if shape.code.co_name in ("_f", "_loop"):
            own = {
                name: value
                for name, value in values.items()
                if not PER_DECODE.fullmatch(name)
            }
            bound.append((sources[shape.code], own))
        return original(shape, env, values, fns)

    with monkeypatch.context() as patch:
        patch.setattr(fastpath, "_bound", recording)
        decode_every_per_pc_variant(binary, model)
    return bound


def assert_one_exit(source):
    """*source*, a fused region or loop, leaves through one ``finally:``.

    It writes back, once, each accumulator its prologue hoisted, and
    sets ``_dynamic_index`` and adds its deferred count once.
    """
    lines = [line.strip() for line in source.splitlines()]
    assert lines.count("finally:") == 1, source
    assert lines.count("_cpu._dynamic_index = _i0 + _n") == 1, source
    assert lines.count("_fc[_rid] += _p") == 1, source
    hoisted = 0
    for home, local, counts in fastpath._ACCUMULATORS.values():
        prologue = f"{local} = 0" if counts else f"{local} = {home}"
        writeback = f"{home} += {local}" if counts else f"{home} = {local}"
        assert lines.count(writeback) == lines.count(prologue) <= 1, source
        hoisted += lines.count(prologue)
    assert hoisted, source


def corpus_binaries(model):
    for entry in load_corpus(str(CORPUS_DIR)):
        try:
            result = compile_amnesic(materialize(entry.spec), model)
        except ReproError:
            continue
        yield result.binary


@pytest.fixture(scope="module")
def binaries():
    """The probabilistic and Oracle binaries of every kernel, and every corpus entry's."""
    model = paper_energy_model()
    found = []
    for spec in all_specs():
        setup = prepare_evaluation(spec.instantiate(SCALE), model, backend="fast-batched")
        found += [(setup.compilation_for(policy).binary, model) for policy in ("FLC", "Oracle")]
    fuzz_model = default_fuzz_model()
    found += [(binary, fuzz_model) for binary in corpus_binaries(fuzz_model)]
    return found


def test_the_shape_key_determines_the_source(binaries, monkeypatch, sources):
    fastpath.clear_codegen_caches()
    per_pc_sources = {}
    traced_loops = {}
    shaped = fastpath._shaped

    def recording(key, render):
        shape = shaped(key, render)
        if key[0] == "pc":
            per_pc_sources[key] = sources[shape.code]
        elif key[0] == "loop" and len(key) > 2:
            traced_loops[key] = sources[shape.code]
        return shape

    monkeypatch.setattr(fastpath, "_shaped", recording)
    warm = [
        (
            planned_units(binary, model),
            decoded_units(binary, model, monkeypatch, sources),
        )
        for binary, model in binaries
    ]
    fused = [
        source
        for code, source in sources.items()
        if code.co_name in ("_region", "_loop")
    ]
    assert len(fused) > len(traced_loops) > 0
    for source in fused:
        assert_one_exit(source)
    shapes = {id(unit.shape) for units, _ in warm for unit in units}
    assert len(shapes) < sum(len(units) for units, _ in warm), (
        "no two units share a shape"
    )
    kinds = {unit.shape.code.co_name for units, _ in warm for unit in units}
    assert kinds == {"_region", "_loop", "_slice"}
    variants = {(key[1][0], key[2]) for key in per_pc_sources}
    assert {("rcmp", False), ("ld", True), ("halt", True)} <= variants
    assert {key[1][1] for key in per_pc_sources if key[1][0] == "rcmp"} == {
        (depth, verify) for depth in (0, 1, 2) for verify in (False, True)
    }
    assert len(set(per_pc_sources.values())) == len(per_pc_sources), (
        "two per-pc keys render the same source"
    )
    # A traced loop's key is the untraced loop key, the trace flag and a
    # writer flag per element.
    assert traced_loops
    for (_, parts, traced, writers), source in traced_loops.items():
        assert traced is True and len(writers) == len(parts)
        assert "_lrn0()" in source and "_ina0(_ix)" in source
        assert all(("_wra%d(_ix)" % n in source) == w for n, w in enumerate(writers))
    # From here every unit renders its own code, as from an empty cache:
    # a per-pc unit once, however many decodes of its binary bind it.
    monkeypatch.setattr(fastpath, "_shaped", lambda key, render: render())
    render_pc = fastpath._render_pc
    rendered = {}

    def once_per_unit(key, values, names):
        unit = (key, values["_s"])
        if unit not in rendered:
            rendered[unit] = render_pc(key, values, names)
        return rendered[unit]

    monkeypatch.setattr(fastpath, "_render_pc", once_per_unit)
    for (binary, model), (units, per_pc) in zip(binaries, warm):
        fastpath.clear_codegen_caches()
        rendered.clear()
        cold = planned_units(binary, model)
        assert [sources[unit.shape.code] for unit in cold] == [
            sources[unit.shape.code] for unit in units
        ], binary.program.name
        assert [unit.values for unit in cold] == [unit.values for unit in units]
        assert (
            decoded_units(binary, model, monkeypatch, sources) == per_pc
        ), binary.program.name


def test_code_objects_name_no_program(binaries):
    traced_loops = 0
    for binary, model in binaries[:4]:
        for unit in planned_units(binary, model):
            code = unit.shape.code
            assert binary.program.name not in code.co_filename
            assert code.co_filename.startswith(f"<fastpath {code.co_name[1:]}/")
        cpu = BatchedFastAmnesicCPU(binary, model, make_policy("FLC"))
        per_pc = [f.__code__ for f in per_pc_functions(cpu).values()]
        assert per_pc
        traced = BatchedFastCPU(binary.program, model, tracer=DependenceTracker())
        table = traced._decoded()
        loops = [table.fns[unit.at].__code__ for unit in table.units]
        traced_loops += len(loops)
        for code in per_pc + loops:
            assert binary.program.name not in code.co_filename
            assert code.co_filename.startswith("<fastpath ")
        assert all(code.co_filename.startswith("<fastpath loop/") for code in loops)
    assert traced_loops


def bumped(spec, by):
    """*spec* with every chain immediate raised by *by*."""

    def bump(statement):
        chain = getattr(statement, "chain", ())
        if not chain:
            return statement
        return dataclasses.replace(
            statement, chain=tuple((op, imm + by) for op, imm in chain)
        )

    return dataclasses.replace(
        spec, statements=tuple(bump(statement) for statement in spec.statements)
    )


def moved(program):
    """*program* one pc later (behind a leading jump), with its registers rotated."""
    used = sorted(
        {
            operand.index
            for instruction in program.instructions
            for operand in (instruction.dest, *instruction.srcs)
            if isinstance(operand, Reg) and operand.index
        }
    )
    rename = dict(zip(used, used[1:] + used[:1]))

    def reg(operand):
        if isinstance(operand, Reg) and operand.index:
            return Reg(rename[operand.index])
        return operand

    out = Program(program.name + "-moved")
    out.data = program.data
    out.append(Instruction(Opcode.JMP, target="moved"))
    out.add_label("moved")
    for label, pc in program.labels.items():
        out.add_label(label, pc + 1)
    for instruction in program.instructions:
        out.append(
            dataclasses.replace(
                instruction,
                dest=reg(instruction.dest),
                srcs=tuple(map(reg, instruction.srcs)),
            )
        )
    return out


def fused_functions(cpu):
    """The bound fused functions of a decoded CPU: regions and loops by pc, then slices."""
    table = cpu._decoded()
    fused = [table.fns[pc] for pc in sorted(unit.at for unit in table.units)]
    return fused + [table.slices[pc] for pc in sorted(table.slices)]


def per_pc_functions(cpu):
    """The bound per-pc functions of a decoded CPU, by pc."""
    return {
        pc: function
        for pc, function in enumerate(cpu._decoded().fns)
        if function.__code__.co_name == "_f"
    }


def own_values(function):
    """A bound function's parameters by name."""
    code = function.__code__
    return dict(zip(code.co_varnames[: code.co_argcount], function.__defaults__))


def test_programs_differing_in_pcs_registers_and_immediates_share_code():
    model = default_fuzz_model()
    # The loop-carried entry, with a two-op chain so that its immediates
    # land in a fused region.
    spec = load_entry(CORPUS_DIR / "loop-carried-010886bb84ad.json").spec
    spec = dataclasses.replace(
        spec,
        statements=(
            Produce("t0", chain=(("mul", 7), ("add", 5))),
            *spec.statements[1:],
        ),
    )
    programs = (materialize(spec), moved(materialize(bumped(spec, 2))))
    fastpath.clear_codegen_caches()
    runs = []
    for program in programs:
        binary = compile_amnesic(program, model).binary
        fast = BatchedFastAmnesicCPU(binary, model, make_policy("Compiler"))
        fast.run()
        reference = AmnesicCPU(binary, model, make_policy("Compiler"))
        reference.run()
        assert reference.stats.recomputations_fired > 0
        assert _observable(fast) == _observable(reference), program.name
        runs.append((fused_functions(fast), per_pc_functions(fast)))
    first, second = (fused for fused, _ in runs)
    assert {f.__code__.co_name for f in first} == {"_region", "_loop", "_slice"}
    assert len(first) == len(second)
    for one, other in zip(first, second):
        assert one.__code__ is other.__code__
        mine, theirs = own_values(one), own_values(other)
        assert mine.keys() == theirs.keys()
        if "_s" in mine:
            assert theirs["_s"] == mine["_s"] + 1
        registers = sorted(name for name in mine if name.startswith("_g"))
        assert [mine[name] for name in registers] != [
            theirs[name] for name in registers
        ] or not registers
    # The bumped chain immediates bind as different values of one code.
    assert any(
        value != own_values(other)[name]
        for one, other in zip(first, second)
        for name, value in own_values(one).items()
        if name.startswith("_k")
    )
    # Per-pc code too, one pc later behind the leading jump.
    first, second = (per_pc for _, per_pc in runs)
    assert first and {pc + 1 for pc in first} == second.keys() - {0}
    for pc, one in first.items():
        other = second[pc + 1]
        assert one.__code__ is other.__code__
        mine, theirs = own_values(one), own_values(other)
        assert mine.keys() == theirs.keys()
        for name in ("_s", "_nx", "_tg0"):
            if name in mine:
                assert theirs[name] == mine[name] + 1


def branch_program(bound):
    """``y`` stays 0 when 5 < *bound*, else becomes 1: a branch outside any loop."""
    b = ProgramBuilder(f"branch-below-{bound}")
    x, y = b.regs("x", "y")
    b.li(x, 5)
    b.br(Opcode.BLT, x, bound, "small")
    b.li(y, 1)
    b.label("small")
    b.halt()
    return b.build()


def registers(cls, program, model):
    cpu = cls(program, model)
    cpu.run()
    return cpu.registers


def test_per_pc_immediates_bind_per_program_and_the_twin_is_caught():
    model = default_fuzz_model()
    programs = [branch_program(3), branch_program(10)]
    fastpath.clear_codegen_caches()
    branches = []
    for program in programs:
        cpu = BatchedFastCPU(program, model)
        cpu.run()
        assert cpu.registers == registers(CPU, program, model), program.name
        assert not cpu._decoded().units
        branches.append(per_pc_functions(cpu)[1])
    one, other = branches
    assert one.__code__ is other.__code__
    assert (own_values(one)["_k0"], own_values(other)["_k0"]) == (3, 10)
    with shape_key_drops_literal():
        fast = [registers(BatchedFastCPU, program, model) for program in programs]
    assert fast != [registers(CPU, program, model) for program in programs]


def test_corpus_replay_catches_shape_key_drops_literal():
    model = default_fuzz_model()
    assert replay_corpus(str(CORPUS_DIR), model=model, backend="fast-batched").ok
    with shape_key_drops_literal():
        assert not replay_corpus(
            str(CORPUS_DIR), model=model, backend="fast-batched"
        ).ok
    assert replay_corpus(str(CORPUS_DIR), model=model, backend="fast-batched").ok


def test_the_shape_cache_is_bounded_and_cleared(binaries, monkeypatch):
    fastpath.clear_codegen_caches()
    monkeypatch.setattr(fastpath, "_SHAPE_LIMIT", 5)
    for binary, model in binaries[:6]:
        planned_units(binary, model)
        assert len(fastpath._SHAPES) <= 5
    fastpath.clear_codegen_caches()
    assert not fastpath._SHAPES
