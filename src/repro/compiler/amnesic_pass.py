"""The end-to-end amnesic compiler pass (paper section 3.1).

Pipeline::

    profile -> extract templates -> form slices -> classify/validate
            -> select profitable slices -> resolve conflicts -> rewrite

Selection modes mirror the paper's evaluation setup (section 5.1):

* ``probabilistic`` — the default: a load is swapped iff the compiler's
  probabilistic energy model says recomputation is cheaper
  (``E_rc < E_ld``).  This is the slice set shared by the Compiler, FLC,
  LLC and C-Oracle policies.
* ``all_valid`` — every validated slice is embedded regardless of
  estimated profit; paired with the Oracle runtime policy this yields
  the paper's Oracle configuration, whose "decisions are based on actual
  (not probabilistic or predicted) energy costs".

Conflict resolution keeps the binary self-consistent: a load that serves
as a *checkpoint source* for a chosen slice (its value feeds a REC) must
keep executing, so it can never itself be swapped.  Candidates are
ranked by estimated benefit and greedily admitted.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple, cast

from ..energy.model import EnergyModel
from ..isa.program import Program
from ..telemetry.runtime import get_telemetry
from ..trace.recorder import ProfileResult, profile_program
from .annotate import AmnesicBinary, rewrite_binary
from .cost import ESTIMATION_GLOBAL, ESTIMATION_PER_LOAD, CostContext
from .formation import FORMATION_GREEDY, FORMATION_OPTIMAL, form_slice_tree
from .leaves import (
    InstanceOperands,
    OperandFacts,
    ValidationReport,
    classify_and_validate,
    collect_liveness,
)
from .producers import (
    DEFAULT_MAX_HEIGHT,
    DEFAULT_MAX_NODES,
    DEFAULT_MAX_SAMPLES,
    TemplateExtractor,
)
from .rslice import RSlice, TemplateNode

SELECTION_PROBABILISTIC = "probabilistic"
SELECTION_ALL_VALID = "all_valid"


@dataclasses.dataclass(frozen=True)
class PassOptions:
    """Tuning knobs of the compiler pass."""

    max_height: int = DEFAULT_MAX_HEIGHT
    max_nodes: int = DEFAULT_MAX_NODES
    max_samples: int = DEFAULT_MAX_SAMPLES
    #: Loads observed fewer times than this are not worth a slice.
    min_instances: int = 2
    selection: str = SELECTION_PROBABILISTIC
    #: ``greedy`` = the paper's grow-while-affordable algorithm;
    #: ``optimal`` = minimum-E_rc cut (see repro.compiler.formation).
    formation: str = FORMATION_GREEDY
    #: PrLi estimation: suite-wide ``global`` statistics (the paper's
    #: formulation) or ``per_load`` histograms (ablation).
    estimation: str = ESTIMATION_GLOBAL

    def __post_init__(self) -> None:
        if self.selection not in (SELECTION_PROBABILISTIC, SELECTION_ALL_VALID):
            raise ValueError(f"unknown selection mode {self.selection!r}")
        if self.formation not in (FORMATION_GREEDY, FORMATION_OPTIMAL):
            raise ValueError(f"unknown formation mode {self.formation!r}")
        if self.estimation not in (ESTIMATION_GLOBAL, ESTIMATION_PER_LOAD):
            raise ValueError(f"unknown estimation mode {self.estimation!r}")


@dataclasses.dataclass(frozen=True)
class FrontEnd:
    """What a compile reads off its profile before formation.

    Extraction and liveness depend only on the profile, the program it
    ran and the four :class:`PassOptions` fields in :func:`front_end`'s
    key, so compiles of one profile share them.  Shared read-only:
    each compile copies ``rejected``, and formation materialises fresh
    nodes from ``templates``.
    """

    #: Static loads rejected before formation: load pc -> reason.
    rejected: Dict[int, str]
    #: Full producer templates of the remaining loads, by load pc.
    templates: Dict[int, TemplateNode]
    liveness: OperandFacts


#: The :class:`PassOptions` fields the front end reads: its memo key.
FRONT_END_FIELDS: Tuple[str, ...] = (
    "max_height",
    "max_nodes",
    "max_samples",
    "min_instances",
)


def front_end(
    program: Program, profile: ProfileResult, options: PassOptions
) -> FrontEnd:
    """The front end of compiling *program* from *profile*, built once.

    Memoized on the profile (which ran *program*) by
    :data:`FRONT_END_FIELDS`, so it lives and dies with the profile and
    never pickles.  The energy model is not an input: costs are priced
    after it.
    """
    key = ("front_end", *(getattr(options, name) for name in FRONT_END_FIELDS))
    cached = profile.memo.get(key)
    if cached is None:
        cached = profile.memo[key] = _build_front_end(program, profile, options)
    return cast(FrontEnd, cached)


def _instance_operands(profile: ProfileResult) -> InstanceOperands:
    """The operand values of *profile*'s replayed instances, by instance.

    One map per profile, memoized like :func:`front_end`: every replay
    of the profile's trace (liveness under any front-end key, validation
    in every compile) derives an instance's operands at most once.
    """
    return cast(InstanceOperands, profile.memo.setdefault("operands", {}))


def _build_front_end(
    program: Program, profile: ProfileResult, options: PassOptions
) -> FrontEnd:
    tracker = profile.dependence
    extractor = TemplateExtractor(
        tracker,
        max_height=options.max_height,
        max_nodes=options.max_nodes,
        max_samples=options.max_samples,
    )
    # Candidate selection: which static loads have a stable,
    # sufficiently hot producer template worth slicing.
    rejected: Dict[int, str] = {}
    templates: Dict[int, TemplateNode] = {}
    for load_pc in program.static_loads():
        count = profile.loads.load_count(load_pc)
        if count < options.min_instances:
            rejected[load_pc] = (
                f"only {count} dynamic instance(s) observed "
                f"(minimum {options.min_instances})"
            )
            continue
        template = extractor.extract(load_pc)
        if template is None:
            rejected[load_pc] = "no stable producer template"
            continue
        templates[load_pc] = template.tree
    # First trace scan: liveness of every severable operand, so
    # formation can price live leaf inputs as free and validation can
    # classify the cut trees' leaves with the same answer.
    liveness = collect_liveness(templates, tracker, _instance_operands(profile))
    return FrontEnd(rejected, templates, liveness)


@dataclasses.dataclass
class CompilationResult:
    """Everything the pass produced, including rejection diagnostics."""

    binary: AmnesicBinary
    rslices: List[RSlice]
    rejected: Dict[int, str]  # load pc -> reason
    profile: ProfileResult
    options: PassOptions

    @property
    def swapped_load_pcs(self) -> List[int]:
        return sorted(rs.load_pc for rs in self.rslices)

    def slice_for_load(self, load_pc: int) -> Optional[RSlice]:
        for rslice in self.rslices:
            if rslice.load_pc == load_pc:
                return rslice
        return None


def compile_amnesic(
    program: Program,
    model: EnergyModel,
    profile: Optional[ProfileResult] = None,
    options: PassOptions = PassOptions(),
    backend: Optional[str] = None,
) -> CompilationResult:
    """Run the full amnesic pass over *program*.

    *profile* may be supplied to reuse an existing profiling run of
    *program* (e.g. when compiling it under several option sets); the
    compiles then share one :func:`front_end` per extraction setting.
    *backend* names the execution backend for the profiling run when one
    is needed; backends are trace-equivalent, so the compiled binary is
    identical either way.
    """
    telemetry = get_telemetry()
    with telemetry.span(
        "compile",
        program=program.name,
        selection=options.selection,
        formation=options.formation,
    ) as compile_span:
        if profile is None:
            profile = profile_program(program, model, backend=backend)
        tracker = profile.dependence
        context = CostContext.from_trace(
            model, profile.loads, tracker, estimation=options.estimation
        )

        # Template extraction and liveness, shared by every compile of
        # this profile with the same extraction options.
        with telemetry.span("compile.candidates") as candidates_span:
            front = front_end(program, profile, options)
            rejected = dict(front.rejected)
            candidates_span.set(
                candidates=len(front.templates), rejected=len(rejected)
            )

        # Slice formation, pricing live leaf inputs as free.
        with telemetry.span("compile.formation") as formation_span:
            candidates = {}
            for load_pc, tree in front.templates.items():
                formed = form_slice_tree(
                    tree,
                    context,
                    load_pc,
                    liveness=front.liveness,
                    mode=options.formation,
                )
                candidates[load_pc] = formed.tree
            formation_span.set(formed=len(candidates))

        # Second trace scan: validate the recomputation-equals-load
        # invariant of the final cut trees on every dynamic instance,
        # then classify their leaves by the front end's liveness.
        with telemetry.span("compile.classify"):
            reports = classify_and_validate(
                candidates, tracker, front.liveness, _instance_operands(profile)
            )

        with telemetry.span("compile.select") as select_span:
            scored: List[tuple] = []
            for load_pc, report in reports.items():
                if not report.valid:
                    rejected[load_pc] = _rejection_reason(report)
                    continue
                traversal = context.traversal_cost(report.tree)
                selection = context.selection_cost(report.tree, load_pc)
                estimated_load = context.estimated_load_cost(load_pc)
                benefit = estimated_load.energy_nj - selection.energy_nj
                if options.selection == SELECTION_PROBABILISTIC and benefit <= 0:
                    rejected[load_pc] = (
                        f"unprofitable: E_rc {selection.energy_nj:.2f}nJ >= "
                        f"E_ld {estimated_load.energy_nj:.2f}nJ"
                    )
                    continue
                scored.append(
                    (benefit, load_pc, report, traversal, selection, estimated_load)
                )

            scored.sort(key=lambda item: (-item[0], item[1]))
            chosen: List[RSlice] = []
            reports_by_pc: Dict[int, ValidationReport] = {}
            protected: set = set()  # loads that must keep executing (REC sources)
            swapped: set = set()
            for benefit, load_pc, report, traversal, selection, estimated_load in scored:
                if load_pc in protected:
                    rejected[load_pc] = "load feeds another slice's checkpoint"
                    continue
                if any(pc in swapped for pc in report.checkpoint_load_pcs):
                    rejected[load_pc] = "a checkpoint-source load was already swapped"
                    continue
                rslice = RSlice(
                    slice_id=len(chosen),
                    load_pc=load_pc,
                    root=report.tree,
                    traversal_cost=traversal,
                    selection_cost=selection,
                    estimated_load_cost=estimated_load,
                )
                chosen.append(rslice)
                reports_by_pc[load_pc] = report
                swapped.add(load_pc)
                protected.update(report.checkpoint_load_pcs)
            select_span.set(chosen=len(chosen))

        with telemetry.span("compile.rewrite"):
            binary = rewrite_binary(program, chosen)

        compile_span.set(slices=len(chosen), rejected=len(rejected))
        telemetry.counter("compile.slices", selection=options.selection).inc(
            len(chosen)
        )
        telemetry.counter("compile.rejected", selection=options.selection).inc(
            len(rejected)
        )
        return CompilationResult(
            binary=binary,
            rslices=chosen,
            rejected=rejected,
            profile=profile,
            options=options,
        )


def _rejection_reason(report: ValidationReport) -> str:
    if report.load_pc in report.checkpoint_load_pcs:
        return "slice would need to checkpoint the swapped load itself"
    if report.mismatches:
        return (
            f"replay validation failed: {report.mismatches} mismatching "
            f"instance(s) out of {report.instances_checked}"
        )
    if not report.instances_checked:
        return "no dynamic instances to validate against"
    return "validation failed"
