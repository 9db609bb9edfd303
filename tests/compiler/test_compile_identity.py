"""Compile identity: every refactor of profile/compile keeps binaries identical.

``golden/compile_digests.json`` holds one sha256 per program over the
probabilistic and the Oracle (all-valid, optimal-cut) compilation: the
rewritten instructions, the swapped loads, every rejection reason, each
slice's leaf kinds and costs, and the profile's per-load service-level
histograms and value localities.  The programs are all 33 kernels at
scale 0.25 plus every committed fuzz-corpus program.

The profiling backend is resolved from ``REPRO_BACKEND``, so running
this module under each backend proves the golden holds whichever
backend gathers the profile.

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
)
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


def program_digest(program, model, backend: Optional[str] = None) -> str:
    """sha256 over the probabilistic and Oracle compilations of *program*."""
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
        payload = {
            "profile": profile_payload(profile),
            "probabilistic": compilation_payload(probabilistic),
            "oracle": compilation_payload(oracle),
        }
    except ReproError as error:
        payload = {"error": f"{type(error).__name__}: {error}"}
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


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


@pytest.mark.parametrize("name", golden_names())
def test_compilation_matches_golden(name):
    assert program_digest(*golden_program(name)) == load_golden().get(name), (
        f"{name}: compiled binary changed; regenerate the golden only if "
        "the change is meant to alter compiled binaries"
    )


if __name__ == "__main__":
    if "--regenerate" not in sys.argv[1:]:
        sys.exit(
            "usage: python -m tests.compiler.test_compile_identity --regenerate"
        )
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(compute_digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
