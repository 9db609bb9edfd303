"""Slice-safety rules: static verification of compiled amnesic binaries.

The dynamic oracle (PR 4) proves correctness by *running* artifacts;
these rules prove structural invariants by *reading* them.  Every check
re-derives its expectation independently from the compiler's inputs —
the slice IR, the profiled trace, the energy model — and diffs it
against what the artifact actually records, so a buggy pass cannot
vouch for itself.

Two entry points:

* :func:`check_program` — CFG-level rules over any program (compiled or
  not);
* :func:`verify_compilation` — the full rule set over one
  :class:`~repro.compiler.amnesic_pass.CompilationResult`.

See :mod:`repro.staticcheck.diagnostics` for the rule catalog.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from ..compiler.amnesic_pass import SELECTION_PROBABILISTIC, CompilationResult
from ..compiler.cost import CostContext
from ..compiler.deadstore import DeadStoreAnalysis, analysis_for_compilation
from ..compiler.rslice import LeafInput, LeafInputKind, RSlice, TemplateNode
from ..energy.model import EnergyModel
from ..isa.opcodes import Opcode
from ..isa.operands import HistRef, Imm, Operand, Reg, SReg
from ..isa.program import Program
from . import diagnostics as D
from .cfg import ControlFlowGraph, build_cfg
from .dataflow import ReachingDefinitions
from .diagnostics import LintReport

#: Relative tolerance when re-deriving recorded costs (pure float
#: addition noise; a dropped term is orders of magnitude larger).
_COST_RTOL = 1e-9


# ----------------------------------------------------------------------
# Program-level (CFG) rules.
# ----------------------------------------------------------------------
def check_program(name: str, program: Program,
                  cfg: Optional[ControlFlowGraph] = None) -> LintReport:
    """Run the CFG rules over *program*."""
    report = LintReport(program=name)
    if cfg is None:
        cfg = build_cfg(program)
    _check_unreachable(report, cfg)
    _check_slice_entries(report, cfg)
    _check_off_end(report, cfg)
    return report


def _check_unreachable(report: LintReport, cfg: ControlFlowGraph) -> None:
    if not cfg.program.instructions:
        return
    reachable = cfg.reachable_pcs(0)
    run_start: Optional[int] = None
    for pc in list(cfg.iter_main_pcs()) + [len(cfg.program.instructions)]:
        dead = pc < len(cfg.program.instructions) and pc not in reachable
        if dead and run_start is None:
            run_start = pc
        elif not dead and run_start is not None:
            report.add(
                D.CFG001,
                f"unreachable code: pcs {run_start}..{pc - 1}",
                pc=run_start,
            )
            run_start = None


def _check_slice_entries(report: LintReport, cfg: ControlFlowGraph) -> None:
    program = cfg.program
    for edge in cfg.edges:
        region = program.slice_containing(edge.dst)
        if region is None or edge.src in region:
            continue
        if edge.kind == "rcmp" and edge.dst == region.start:
            continue
        report.add(
            D.CFG002,
            f"{edge.kind} edge from pc {edge.src} enters slice "
            f"{region.slice_id} at pc {edge.dst}",
            pc=edge.src,
            slice_id=region.slice_id,
        )


def _check_off_end(report: LintReport, cfg: ControlFlowGraph) -> None:
    reachable = cfg.reachable_pcs(0) if cfg.program.instructions else frozenset()
    for pc in sorted(cfg.off_end):
        if pc not in reachable:
            continue  # CFG001 already covers dead code
        report.add(
            D.CFG003,
            f"control can run off the end of the program from pc {pc}",
            pc=pc,
        )


# ----------------------------------------------------------------------
# Compilation-level verification.
# ----------------------------------------------------------------------
def verify_compilation(
    name: str,
    original: Program,
    compilation: CompilationResult,
    model: EnergyModel,
    deadstores: Optional[DeadStoreAnalysis] = None,
) -> LintReport:
    """Run every slice-safety rule over one compiled artifact.

    *deadstores* defaults to the real analysis; the broken-pass harness
    injects a deliberately wrong one to prove DST300 bites.
    """
    binary = compilation.binary.program
    report = LintReport(program=name)
    binary_cfg = build_cfg(binary)
    report.extend(check_program(name, binary, cfg=binary_cfg).findings)

    pc_map = _check_rewrite_shape(report, original, compilation)
    _check_slice_regions(report, compilation)
    _check_rcmp_wiring(report, original, compilation, pc_map)
    _check_rec_placement(report, compilation, pc_map)
    _check_live_leaves(report, original, compilation)
    _check_lowering(report, compilation)
    _check_checkpoint_conflicts(report, compilation)
    _check_costs(report, compilation, model)
    _check_deadstores(report, compilation, deadstores)
    return report


# ----------------------------------------------------------------------
# SLC105 — rewrite shape, and the old->new pc map everything else needs.
# ----------------------------------------------------------------------
def _main_length(binary: Program) -> int:
    if not binary.slices:
        return len(binary.instructions)
    return min(region.start for region in binary.slices.values())


def _hist_slots(node: TemplateNode) -> List[LeafInput]:
    """The node's checkpointed inputs, in REC slot (position) order."""
    return [
        li
        for li in sorted(node.leaf_inputs, key=lambda li: li.position)
        if li.reg_index is not None and li.kind is LeafInputKind.HIST
    ]


def _node_ids(root: TemplateNode) -> Dict[int, int]:
    return {id(node): index for index, node in enumerate(root.post_order())}


def _expected_recs(rslices: List[RSlice]) -> Dict[Tuple[int, int], TemplateNode]:
    """(slice_id, leaf_id) -> the node whose inputs that REC checkpoints."""
    expected: Dict[Tuple[int, int], TemplateNode] = {}
    for rslice in rslices:
        ids = _node_ids(rslice.root)
        for node in rslice.root.post_order():
            if _hist_slots(node):
                expected[(rslice.slice_id, ids[id(node)])] = node
    return expected


def _check_rewrite_shape(
    report: LintReport, original: Program, compilation: CompilationResult
) -> Optional[Dict[int, int]]:
    """SLC105: the main region is the original stream + RCMPs + RECs.

    Returns the old-pc -> new-pc map on success, ``None`` when the shape
    is too broken for position-dependent rules to run.
    """
    binary = compilation.binary.program
    swapped = {rs.load_pc: rs for rs in compilation.rslices}
    expected_recs = _expected_recs(compilation.rslices)
    seen_recs: Dict[Tuple[int, int], List[int]] = {}

    pc_map: Dict[int, int] = {}
    old_pc = 0
    originals = original.instructions
    ok = True
    for new_pc in range(_main_length(binary)):
        instruction = binary.instructions[new_pc]
        if instruction.opcode is Opcode.REC:
            key = (instruction.slice_id, instruction.leaf_id)
            seen_recs.setdefault(key, []).append(new_pc)
            continue
        if old_pc >= len(originals):
            report.add(
                D.SLC105,
                f"main region has trailing instruction(s) beyond the "
                f"original stream: {instruction}",
                pc=new_pc,
            )
            ok = False
            break
        expected = originals[old_pc]
        if old_pc in swapped:
            rslice = swapped[old_pc]
            if instruction.opcode is not Opcode.RCMP or (
                instruction.slice_id != rslice.slice_id
            ):
                report.add(
                    D.SLC105,
                    f"swapped load at original pc {old_pc} should appear "
                    f"as RCMP for slice {rslice.slice_id}, found "
                    f"{instruction}",
                    pc=new_pc,
                    slice_id=rslice.slice_id,
                )
                ok = False
                break
        elif instruction != expected:
            report.add(
                D.SLC105,
                f"main region diverges from the original stream at "
                f"original pc {old_pc}: expected {expected}, found "
                f"{instruction}",
                pc=new_pc,
            )
            ok = False
            break
        pc_map[old_pc] = new_pc
        old_pc += 1
    if ok and old_pc != len(originals):
        report.add(
            D.SLC105,
            f"main region ends after {old_pc} of {len(originals)} "
            f"original instructions",
            pc=_main_length(binary),
        )
        ok = False

    for key, pcs in seen_recs.items():
        if key not in expected_recs:
            report.add(
                D.SLC105,
                f"unexpected REC for slice {key[0]} leaf {key[1]} "
                f"(no checkpointed inputs at that leaf)",
                pc=pcs[0],
                slice_id=key[0],
            )
        elif len(pcs) > 1:
            report.add(
                D.SLC103,
                f"leaf {key[1]} is checkpointed by {len(pcs)} RECs; "
                f"exactly one expected",
                pc=pcs[1],
                slice_id=key[0],
            )
    for key in expected_recs:
        if key not in seen_recs:
            report.add(
                D.SLC103,
                f"no REC checkpoints leaf {key[1]} of slice {key[0]}",
                slice_id=key[0],
            )
    return pc_map if ok else None


# ----------------------------------------------------------------------
# SLC100/SLC101 — slice region shape and scratch-file acyclicity.
# ----------------------------------------------------------------------
def _check_slice_regions(report: LintReport, compilation: CompilationResult) -> None:
    binary = compilation.binary.program
    for sid, region in sorted(binary.slices.items()):
        body = binary.instructions[region.start:region.end]
        if not body or body[-1].opcode is not Opcode.RTN:
            report.add(
                D.SLC100,
                f"slice {sid} does not end with RTN",
                pc=region.end - 1,
                slice_id=sid,
            )
            continue
        defined: Set[int] = set()
        for offset, instruction in enumerate(body[:-1]):
            pc = region.start + offset
            if not instruction.opcode.is_compute:
                report.add(
                    D.SLC100,
                    f"non-compute opcode {instruction.opcode.value} inside "
                    f"slice {sid}",
                    pc=pc,
                    slice_id=sid,
                )
                continue
            if not isinstance(instruction.dest, SReg):
                report.add(
                    D.SLC100,
                    f"slice instruction does not write a scratch register: "
                    f"{instruction}",
                    pc=pc,
                    slice_id=sid,
                )
                continue
            for sreg in instruction.scratch_uses():
                if sreg.index not in defined:
                    report.add(
                        D.SLC101,
                        f"s{sreg.index} read before any definition inside "
                        f"slice {sid} (cyclic or uninitialized scratch "
                        f"dataflow)",
                        pc=pc,
                        slice_id=sid,
                    )
            if instruction.dest.index in defined:
                report.add(
                    D.SLC101,
                    f"s{instruction.dest.index} defined twice inside "
                    f"slice {sid}",
                    pc=pc,
                    slice_id=sid,
                )
            defined.add(instruction.dest.index)
        rtn_dest = body[-1].dest
        if not isinstance(rtn_dest, SReg) or rtn_dest.index not in defined:
            report.add(
                D.SLC101,
                f"slice {sid} RTN returns an undefined scratch register "
                f"({rtn_dest})",
                pc=region.end - 1,
                slice_id=sid,
            )


# ----------------------------------------------------------------------
# SLC102 — RCMP wiring.
# ----------------------------------------------------------------------
def _check_rcmp_wiring(
    report: LintReport,
    original: Program,
    compilation: CompilationResult,
    pc_map: Optional[Dict[int, int]],
) -> None:
    binary = compilation.binary.program
    rcmps: Dict[int, List[int]] = {}
    for pc in binary.static_rcmp():
        rcmps.setdefault(binary.instructions[pc].slice_id, []).append(pc)
    for rslice in compilation.rslices:
        sid = rslice.slice_id
        sites = rcmps.pop(sid, [])
        if len(sites) != 1:
            report.add(
                D.SLC102,
                f"slice {sid} has {len(sites)} RCMP site(s); exactly one "
                f"expected",
                slice_id=sid,
            )
            continue
        pc = sites[0]
        instruction = binary.instructions[pc]
        region = binary.slices.get(sid)
        if region is None:
            report.add(D.SLC102, f"slice {sid} has no embedded region",
                       slice_id=sid)
            continue
        if binary.pc_of(instruction.target) != region.start:
            report.add(
                D.SLC102,
                f"RCMP targets pc {binary.pc_of(instruction.target)}, "
                f"slice {sid} starts at pc {region.start}",
                pc=pc,
                slice_id=sid,
            )
        if region.load_pc != pc:
            report.add(
                D.SLC102,
                f"slice {sid} records owner pc {region.load_pc}, RCMP "
                f"sits at pc {pc}",
                pc=pc,
                slice_id=sid,
            )
        load = original.instructions[rslice.load_pc]
        if load.opcode is not Opcode.LD:
            report.add(
                D.SLC102,
                f"slice {sid} claims original pc {rslice.load_pc}, which "
                f"is {load.opcode.value}, not a load",
                pc=pc,
                slice_id=sid,
            )
        elif instruction.dest != load.dest or instruction.srcs != load.srcs:
            report.add(
                D.SLC102,
                f"RCMP does not inherit the load's operands: load "
                f"{load}, rcmp {instruction}",
                pc=pc,
                slice_id=sid,
            )
        if pc_map is not None and pc_map.get(rslice.load_pc) != pc:
            report.add(
                D.SLC102,
                f"RCMP for slice {sid} does not sit at the swapped "
                f"load's position",
                pc=pc,
                slice_id=sid,
            )
    for sid, sites in rcmps.items():
        report.add(
            D.SLC102,
            f"RCMP references slice {sid}, which no selected RSlice owns",
            pc=sites[0],
            slice_id=sid,
        )


# ----------------------------------------------------------------------
# SLC103 — REC placement and slice closure.
# ----------------------------------------------------------------------
def _check_rec_placement(
    report: LintReport,
    compilation: CompilationResult,
    pc_map: Optional[Dict[int, int]],
) -> None:
    if pc_map is None:
        return  # SLC105 already failed; positions are meaningless
    binary = compilation.binary.program
    rec_sites: Dict[Tuple[int, int], int] = {}
    for pc in range(_main_length(binary)):
        instruction = binary.instructions[pc]
        if instruction.opcode is Opcode.REC:
            rec_sites.setdefault((instruction.slice_id, instruction.leaf_id), pc)

    for rslice in compilation.rslices:
        ids = _node_ids(rslice.root)
        for node in rslice.root.post_order():
            slots = _hist_slots(node)
            if not slots:
                continue
            leaf_id = ids[id(node)]
            rec_pc = rec_sites.get((rslice.slice_id, leaf_id))
            if rec_pc is None:
                continue  # missing REC already reported by SLC103 above
            rec_instruction = binary.instructions[rec_pc]
            expected_srcs: Tuple[Operand, ...] = tuple(
                Reg(li.reg_index) for li in slots
            )
            if rec_instruction.srcs != expected_srcs:
                report.add(
                    D.SLC103,
                    f"REC for leaf {leaf_id} checkpoints "
                    f"{list(map(str, rec_instruction.srcs))}, slice IR "
                    f"needs {list(map(str, expected_srcs))}",
                    pc=rec_pc,
                    slice_id=rslice.slice_id,
                )
                continue
            producer_pc = pc_map.get(node.pc)
            if producer_pc is None:
                report.add(
                    D.SLC103,
                    f"leaf {leaf_id}'s producer (original pc {node.pc}) "
                    f"is not present in the rewritten binary",
                    pc=rec_pc,
                    slice_id=rslice.slice_id,
                )
                continue
            if node.is_checkpoint_load:
                _require_adjacent(
                    report, binary, rslice.slice_id, leaf_id,
                    first=producer_pc, second=rec_pc,
                    why="a checkpoint-load REC must capture the loaded "
                        "value: REC goes after the load",
                )
            else:
                _require_adjacent(
                    report, binary, rslice.slice_id, leaf_id,
                    first=rec_pc, second=producer_pc,
                    why="a compute-leaf REC must capture the producer's "
                        "inputs: REC goes before the producer (in-place "
                        "updates would clobber them)",
                )


def _require_adjacent(
    report: LintReport,
    binary: Program,
    slice_id: int,
    leaf_id: int,
    first: int,
    second: int,
    why: str,
) -> None:
    """The pcs must be ordered with only RECs between them (slice closure)."""
    if first >= second:
        report.add(
            D.SLC103,
            f"REC for leaf {leaf_id} is on the wrong side of its "
            f"producer: {why}",
            pc=max(first, second),
            slice_id=slice_id,
        )
        return
    for pc in range(first + 1, second):
        between = binary.instructions[pc]
        if between.opcode is not Opcode.REC:
            report.add(
                D.SLC103,
                f"{between.opcode.value} at pc {pc} executes between leaf "
                f"{leaf_id}'s REC and its producer; the checkpointed "
                f"values can diverge from the producer's operands",
                pc=pc,
                slice_id=slice_id,
            )
            return


# ----------------------------------------------------------------------
# SLC104 — LIVE_REG leaf inputs must not be clobbered on any path.
# ----------------------------------------------------------------------
def _check_live_leaves(
    report: LintReport, original: Program, compilation: CompilationResult
) -> None:
    """Reaching-definition agreement between leaf use and RCMP point.

    A leaf input classified LIVE_REG is read from the architectural
    register file at recompute (RCMP) time, not at producer time.  If
    the definitions of that register that can reach the RCMP differ
    from those that can reach the producer's read, some path rebinds
    the register in between and the classification rests purely on the
    profiled values staying equal — flag it.
    """
    if not compilation.rslices:
        return
    cfg = build_cfg(original)
    reaching = ReachingDefinitions(cfg)
    for rslice in compilation.rslices:
        ids = _node_ids(rslice.root)
        for node in rslice.root.post_order():
            if node.is_checkpoint_load:
                continue
            for leaf_input in node.leaf_inputs:
                if (
                    leaf_input.kind is not LeafInputKind.LIVE_REG
                    or leaf_input.reg_index is None
                ):
                    continue
                reg = leaf_input.reg_index
                at_use = reaching.defs_reaching(node.pc, reg)
                at_rcmp = reaching.defs_reaching(rslice.load_pc, reg)
                if at_use != at_rcmp:
                    clobbers = sorted(at_rcmp - at_use) or sorted(at_use - at_rcmp)
                    report.add(
                        D.SLC104,
                        f"leaf {ids[id(node)]} input r{reg} is classified "
                        f"live, but defs at pc(s) "
                        f"{', '.join(map(str, clobbers))} can rebind it "
                        f"between producer pc {node.pc} and the swapped "
                        f"load at pc {rslice.load_pc}",
                        pc=node.pc,
                        slice_id=rslice.slice_id,
                    )


# ----------------------------------------------------------------------
# SLC106 — lowered slice instructions must agree with the slice IR.
# ----------------------------------------------------------------------
def _expected_lowering(
    node: TemplateNode, node_id: int, ids: Dict[int, int]
) -> Optional[Tuple[Opcode, SReg, Tuple[Operand, ...], Optional[int]]]:
    """Independently re-derive the lowering of one template node.

    Mirrors the annotate-pass contract: checkpoint loads become
    ``MOV s_i, Hist[i, 0]``; other nodes re-execute their opcode with
    CONST inputs as immediates, LIVE_REG inputs as register reads, HIST
    inputs as ``HistRef(node_id, slot)``, and children as scratch reads.
    Returns ``None`` when the IR itself is malformed.
    """
    if node.is_checkpoint_load:
        return (Opcode.MOV, SReg(node_id), (HistRef(node_id, 0),), node_id)
    slots = _hist_slots(node)
    slot_of = {id(li): slot for slot, li in enumerate(slots)}
    arity = len(node.leaf_inputs) + len(node.children)
    operands: List[Optional[Operand]] = [None] * arity
    for leaf_input in node.leaf_inputs:
        if leaf_input.reg_index is None:
            operand: Operand = Imm(leaf_input.const_value)
        elif leaf_input.kind is LeafInputKind.LIVE_REG:
            operand = Reg(leaf_input.reg_index)
        else:
            slot = slot_of.get(id(leaf_input))
            if slot is None:
                return None  # register input neither live nor checkpointed
            operand = HistRef(node_id, slot)
        if not 0 <= leaf_input.position < arity:
            return None
        operands[leaf_input.position] = operand
    for child, position in zip(node.children, node.child_positions):
        if not 0 <= position < arity:
            return None
        operands[position] = SReg(ids[id(child)])
    if any(op is None for op in operands):
        return None
    return (
        node.opcode,
        SReg(node_id),
        tuple(op for op in operands if op is not None),
        node_id if slots else None,
    )


def _check_lowering(report: LintReport, compilation: CompilationResult) -> None:
    binary = compilation.binary.program
    for rslice in compilation.rslices:
        sid = rslice.slice_id
        region = binary.slices.get(sid)
        if region is None:
            continue  # SLC102 reports the missing region
        ids = _node_ids(rslice.root)
        nodes = list(rslice.root.post_order())
        body = binary.instructions[region.start:region.end]
        if len(body) != len(nodes) + 1:
            report.add(
                D.SLC106,
                f"slice {sid} region holds {len(body)} instruction(s); "
                f"the IR lowers to {len(nodes)} node(s) plus RTN",
                pc=region.start,
                slice_id=sid,
            )
            continue
        for offset, node in enumerate(nodes):
            node_id = ids[id(node)]
            pc = region.start + offset
            expected = _expected_lowering(node, node_id, ids)
            if expected is None:
                report.add(
                    D.SLC106,
                    f"slice {sid} node {node_id} (original pc {node.pc}) "
                    f"has an unlowerable input layout in the IR",
                    pc=pc,
                    slice_id=sid,
                )
                continue
            actual = body[offset]
            got = (actual.opcode, actual.dest, actual.srcs, actual.leaf_id)
            if got != expected:
                report.add(
                    D.SLC106,
                    f"slice {sid} node {node_id}: lowered instruction "
                    f"{actual} disagrees with the IR (expected "
                    f"{expected[0].value} {expected[1]}, "
                    f"{', '.join(map(str, expected[2]))}, "
                    f"leaf_id={expected[3]})",
                    pc=pc,
                    slice_id=sid,
                )
        root_id = ids[id(rslice.root)]
        rtn_instruction = body[-1]
        if (
            rtn_instruction.opcode is Opcode.RTN
            and rtn_instruction.dest != SReg(root_id)
        ):
            report.add(
                D.SLC106,
                f"slice {sid} RTN returns {rtn_instruction.dest}, the IR "
                f"root lowers to s{root_id}",
                pc=region.end - 1,
                slice_id=sid,
            )


# ----------------------------------------------------------------------
# SLC107 — checkpoint-source loads may not themselves be swapped.
# ----------------------------------------------------------------------
def _check_checkpoint_conflicts(
    report: LintReport, compilation: CompilationResult
) -> None:
    swapped = set(compilation.swapped_load_pcs)
    for rslice in compilation.rslices:
        ids = _node_ids(rslice.root)
        for node in rslice.root.post_order():
            if not node.is_checkpoint_load or node.pc not in swapped:
                continue
            other = compilation.slice_for_load(node.pc)
            other_id = other.slice_id if other is not None else "?"
            report.add(
                D.SLC107,
                f"leaf {ids[id(node)]} of slice {rslice.slice_id} "
                f"checkpoints the load at original pc {node.pc}, but that "
                f"load is swapped for slice {other_id}'s RCMP and never "
                f"executes",
                pc=node.pc,
                slice_id=rslice.slice_id,
            )


# ----------------------------------------------------------------------
# CST200/CST201 — cost re-derivation, budgets, and size bounds.
# ----------------------------------------------------------------------
def _cost_close(recorded, derived) -> bool:
    return math.isclose(
        recorded.energy_nj, derived.energy_nj, rel_tol=_COST_RTOL, abs_tol=1e-12
    ) and math.isclose(
        recorded.time_ns, derived.time_ns, rel_tol=_COST_RTOL, abs_tol=1e-12
    )


def _check_costs(
    report: LintReport, compilation: CompilationResult, model: EnergyModel
) -> None:
    if not compilation.rslices:
        return
    options = compilation.options
    context = CostContext.from_trace(
        model,
        compilation.profile.loads,
        compilation.profile.dependence,
        estimation=options.estimation,
    )
    for rslice in compilation.rslices:
        sid = rslice.slice_id
        pairs = (
            ("traversal", rslice.traversal_cost,
             context.traversal_cost(rslice.root)),
            ("selection", rslice.selection_cost,
             context.selection_cost(rslice.root, rslice.load_pc)),
            ("estimated-load", rslice.estimated_load_cost,
             context.estimated_load_cost(rslice.load_pc)),
        )
        for label, recorded, derived in pairs:
            if not _cost_close(recorded, derived):
                report.add(
                    D.CST200,
                    f"slice {sid} records a {label} cost of "
                    f"{recorded.energy_nj:.6g} nJ / {recorded.time_ns:.6g} "
                    f"ns; re-deriving from the energy model gives "
                    f"{derived.energy_nj:.6g} nJ / {derived.time_ns:.6g} ns",
                    slice_id=sid,
                )
        if options.selection == SELECTION_PROBABILISTIC and not (
            rslice.selection_cost.energy_nj
            < rslice.estimated_load_cost.energy_nj
        ):
            report.add(
                D.CST200,
                f"slice {sid} breaks its budget: E_rc "
                f"{rslice.selection_cost.energy_nj:.6g} nJ is not below "
                f"E_ld {rslice.estimated_load_cost.energy_nj:.6g} nJ",
                slice_id=sid,
            )
        _check_size_bounds(report, compilation, rslice)


def _check_size_bounds(
    report: LintReport, compilation: CompilationResult, rslice: RSlice
) -> None:
    options = compilation.options
    sid = rslice.slice_id
    size = rslice.length
    if size > options.max_nodes:
        report.add(
            D.CST201,
            f"slice {sid} holds {size} node(s); options allow "
            f"{options.max_nodes}",
            slice_id=sid,
        )
    if rslice.height > options.max_height:
        report.add(
            D.CST201,
            f"slice {sid} has height {rslice.height}; options allow "
            f"{options.max_height}",
            slice_id=sid,
        )
    region = compilation.binary.program.slices.get(sid)
    if region is not None and region.end - region.start != size + 1:
        report.add(
            D.CST201,
            f"slice {sid} region spans {region.end - region.start} "
            f"instruction(s); {size} node(s) plus RTN expected",
            pc=region.start,
            slice_id=sid,
        )
    info = compilation.binary.slices.get(sid)
    if info is None:
        return
    if info.sreg_demand != size:
        report.add(
            D.CST201,
            f"slice {sid} metadata claims a scratch demand of "
            f"{info.sreg_demand}; one post-order scratch register per "
            f"node gives {size}",
            slice_id=sid,
        )
    ids = _node_ids(rslice.root)
    expected_hist = tuple(
        ids[id(node)]
        for node in rslice.root.post_order()
        if _hist_slots(node)
    )
    if info.hist_leaf_ids != expected_hist:
        report.add(
            D.CST201,
            f"slice {sid} metadata lists Hist leaf ids "
            f"{list(info.hist_leaf_ids)}; the IR checkpoints "
            f"{list(expected_hist)}",
            slice_id=sid,
        )


# ----------------------------------------------------------------------
# DST300 — dead-store elision soundness.
# ----------------------------------------------------------------------
def _check_deadstores(
    report: LintReport,
    compilation: CompilationResult,
    deadstores: Optional[DeadStoreAnalysis],
) -> None:
    analysis = (
        deadstores
        if deadstores is not None
        else analysis_for_compilation(compilation)
    )
    swapped = set(compilation.swapped_load_pcs)
    if set(analysis.swapped_load_pcs) != swapped:
        report.add(
            D.DST300,
            f"dead-store analysis was computed against swap set "
            f"{sorted(analysis.swapped_load_pcs)}; the artifact swaps "
            f"{sorted(swapped)}",
        )
    # Independent consumer re-derivation: walk the dynamic trace's
    # load->store memory dependences rather than trusting the analysis'
    # own consumer lists.
    tracker = compilation.profile.dependence
    true_consumers: Dict[int, Set[int]] = {}
    for _, info, _, _, producer in tracker.memory_accesses():
        if info.is_load and producer is not None:
            store_pc = tracker.pc_at(producer)
            true_consumers.setdefault(store_pc, set()).add(info.pc)
    for site in analysis.sites:
        if not site.is_elidable(analysis.swapped_load_pcs):
            continue
        live = sorted(true_consumers.get(site.store_pc, set()) - swapped)
        if live:
            report.add(
                D.DST300,
                f"store at pc {site.store_pc} is reported elidable, but "
                f"the profiled trace shows un-swapped load(s) at pc(s) "
                f"{', '.join(map(str, live))} consuming its values",
                pc=site.store_pc,
            )
