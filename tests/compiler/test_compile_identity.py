"""Compile identity: every refactor of profile/compile keeps binaries identical.

``golden/compile_digests.json`` holds one sha256 per program over the
probabilistic and the Oracle (all-valid, optimal-cut) compilation: the
rewritten instructions, the swapped loads, every rejection reason, each
slice's leaf kinds and costs, and the profile's per-load service-level
histograms and value localities.  The programs are all 33 kernels at
scale 0.25 plus every committed fuzz-corpus program.

The profiling backend is resolved from ``REPRO_BACKEND``, so running
this module under each backend proves the golden holds whichever
backend gathers the profile.  The same compilations check that
formation prices every selected slice as selection does.

Regenerate only when a change is *meant* to alter compiled binaries::

    PYTHONPATH=src python -m tests.compiler.test_compile_identity --regenerate
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Optional

import pytest

from repro.compiler.amnesic_pass import (
    SELECTION_PROBABILISTIC,
    PassOptions,
    compile_amnesic,
    front_end,
)
from repro.compiler.cost import CostContext
from repro.compiler.formation import form_slice_tree
from repro.core.execution import _oracle_options
from repro.energy.tech import paper_energy_model
from repro.errors import ReproError
from repro.fuzz import default_fuzz_model, load_corpus, materialize
from repro.trace.recorder import profile_program
from repro.workloads.suite import REGISTRY

GOLDEN = Path(__file__).resolve().parent / "golden" / "compile_digests.json"
CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus"
KERNEL_SCALE = 0.25


def _cost(cost) -> list:
    return [repr(cost.energy_nj), repr(cost.time_ns)]


def compilation_payload(compilation) -> dict:
    """Everything a compilation decided, as plain JSON data."""
    slices = []
    for rslice in compilation.rslices:
        nodes = []
        for node in rslice.root.walk():
            leaves = [
                [li.position, li.kind.value, li.reg_index, repr(li.const_value)]
                for li in node.leaf_inputs
            ]
            nodes.append([node.pc, node.opcode.value, node.is_checkpoint_load, leaves])
        slices.append(
            {
                "slice_id": rslice.slice_id,
                "load_pc": rslice.load_pc,
                "nodes": nodes,
                "traversal": _cost(rslice.traversal_cost),
                "selection": _cost(rslice.selection_cost),
                "estimated_load": _cost(rslice.estimated_load_cost),
            }
        )
    return {
        "instructions": [repr(i) for i in compilation.binary.program.instructions],
        "swapped": list(compilation.swapped_load_pcs),
        "rejected": sorted([pc, reason] for pc, reason in compilation.rejected.items()),
        "slices": slices,
    }


def profile_payload(profile) -> dict:
    """The load profile the compiler prices slices with."""
    loads = profile.loads
    return {
        "per_load": sorted(
            [pc, sorted([level.value, count] for level, count in counts.items())]
            for pc, counts in loads.per_load.items()
        ),
        "global": sorted(
            [level.value, count] for level, count in loads.global_counts.items()
        ),
        "locality": [
            [pc, repr(profile.locality.locality(pc))]
            for pc in profile.locality.observed_loads()
        ],
    }


def compile_both(program, model, backend: Optional[str] = None):
    """*program*'s profile and its probabilistic and Oracle compilations.

    Returns the :class:`ReproError` instead when profiling or compiling
    raises one.
    """
    try:
        profile = profile_program(program, model, backend=backend)
        probabilistic = compile_amnesic(
            program,
            model,
            profile=profile,
            options=PassOptions(selection=SELECTION_PROBABILISTIC),
        )
        oracle = compile_amnesic(
            program, model, profile=profile, options=_oracle_options(PassOptions())
        )
    except ReproError as error:
        return error
    return profile, probabilistic, oracle


def compiled_digest(compiled) -> str:
    """sha256 over what :func:`compile_both` returned."""
    if isinstance(compiled, ReproError):
        payload = {"error": f"{type(compiled).__name__}: {compiled}"}
    else:
        profile, probabilistic, oracle = compiled
        payload = {
            "profile": profile_payload(profile),
            "probabilistic": compilation_payload(probabilistic),
            "oracle": compilation_payload(oracle),
        }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def program_digest(program, model, backend: Optional[str] = None) -> str:
    """sha256 over the probabilistic and Oracle compilations of *program*."""
    return compiled_digest(compile_both(program, model, backend=backend))


def golden_names():
    """Every program the golden covers: kernels, then corpus entries."""
    kernels = [f"kernel:{name}" for name in REGISTRY.names()]
    corpus = [f"corpus:{entry.name}" for entry in load_corpus(CORPUS_DIR)]
    return kernels + corpus


def golden_program(name: str):
    """(program, model) behind one golden name."""
    kind, _, short = name.partition(":")
    if kind == "kernel":
        return REGISTRY.get(short).instantiate(KERNEL_SCALE), paper_energy_model()
    for entry in load_corpus(CORPUS_DIR):
        if entry.name == short:
            return materialize(entry.spec), default_fuzz_model()
    raise KeyError(name)


def compute_digests(backend: Optional[str] = None) -> Dict[str, str]:
    return {
        name: program_digest(*golden_program(name), backend=backend)
        for name in golden_names()
    }


def load_golden() -> Dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_program():
    names = golden_names()
    assert sorted(names) == sorted(load_golden())
    assert sum(name.startswith("kernel:") for name in names) == 33


@pytest.fixture(scope="module", params=golden_names())
def golden(request):
    """``(name, program, model, compiled)`` of one golden program.

    Module-scoped, so each program is profiled and compiled once for
    every test below, and one program's compilations are held at a time.
    """
    program, model = golden_program(request.param)
    return request.param, program, model, compile_both(program, model)


def test_compilation_matches_golden(golden):
    name, _, _, compiled = golden
    assert compiled_digest(compiled) == load_golden().get(name), (
        f"{name}: compiled binary changed; regenerate the golden only if "
        "the change is meant to alter compiled binaries"
    )


def test_formation_price_is_selection_price(golden):
    """Formation prices each slice as selection does, less RCMP/RTN.

    Both read one liveness answer and charge one amortised REC per node
    with a checkpointed input, so formation's estimate of the cut it
    chose plus the traversal's control overhead is the selection cost
    of the classified tree.
    """
    _, program, model, compiled = golden
    if isinstance(compiled, ReproError):
        return
    profile = compiled[0]
    for compilation in compiled[1:]:
        options = compilation.options
        front = front_end(program, profile, options)
        context = CostContext.from_trace(
            model, profile.loads, profile.dependence, estimation=options.estimation
        )
        overhead = context.control_overhead().energy_nj
        for rslice in compilation.rslices:
            formed = form_slice_tree(
                front.templates[rslice.load_pc],
                context,
                rslice.load_pc,
                liveness=front.liveness,
                mode=options.formation,
            )
            assert formed.tree.structural_signature() == (
                rslice.root.structural_signature()
            )
            assert formed.estimated_energy_nj + overhead == pytest.approx(
                rslice.selection_cost.energy_nj, rel=1e-9, abs=0.0
            )


if __name__ == "__main__":
    if "--regenerate" not in sys.argv[1:]:
        sys.exit(
            "usage: python -m tests.compiler.test_compile_identity --regenerate"
        )
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(compute_digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
