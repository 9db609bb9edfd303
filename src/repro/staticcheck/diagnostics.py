"""Diagnostic engine for the static verifier: rules, findings, reports.

Every check the static analyzer performs is registered here as a
:class:`Rule` with a *stable* identifier (``SLC103`` never changes
meaning across releases — CI gates, docs, and suppression lists key on
it), a default :class:`Severity`, and a one-line contract.  Checks emit
:class:`Finding` records carrying the rule id, a message, and a source
location (``pc`` plus, where applicable, the owning ``slice_id``) so a
finding always points at a concrete instruction of a concrete artifact.

Severities map onto ``repro lint``'s exit codes (0 clean, 1 findings at
gating severity, 2 usage errors):

* ``ERROR`` — the artifact violates an invariant amnesic correctness
  rests on; ``repro lint`` exits non-zero and CI fails.
* ``WARNING`` — a static over-approximation flagged something the
  dynamic oracle may still prove harmless; reported, never gating.
* ``INFO`` — observations (region statistics, unreachable code) that
  feed dashboards and future passes.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, List, Optional


class Severity(enum.Enum):
    """How strongly a finding gates."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclasses.dataclass(frozen=True)
class Rule:
    """One registered check with a stable identity."""

    rule_id: str
    title: str
    severity: Severity
    description: str


#: The rule catalog.  Append-only: ids are stable public API (documented
#: in docs/static-analysis.md); retiring a rule leaves a tombstone.
RULES: Dict[str, Rule] = {}


def _rule(rule_id: str, title: str, severity: Severity, description: str) -> Rule:
    if rule_id in RULES:
        raise ValueError(f"duplicate rule id {rule_id}")
    rule = Rule(rule_id, title, severity, description)
    RULES[rule_id] = rule
    return rule


# ----------------------------------------------------------------------
# CFG / program-shape rules.
# ----------------------------------------------------------------------
CFG001 = _rule(
    "CFG001", "unreachable-code", Severity.INFO,
    "Main-region instructions unreachable from the program entry.",
)
CFG002 = _rule(
    "CFG002", "fallthrough-into-slice", Severity.ERROR,
    "Normal control flow can fall through into a slice region; slices "
    "must only be entered through their owning RCMP.",
)
CFG003 = _rule(
    "CFG003", "off-end-control", Severity.WARNING,
    "A branch or fallthrough can run off the end of the program, which "
    "faults at runtime if the path is ever taken.",
)

# ----------------------------------------------------------------------
# Slice-safety rules.
# ----------------------------------------------------------------------
SLC100 = _rule(
    "SLC100", "slice-region-shape", Severity.ERROR,
    "A slice region must be straight-line recomputing code: compute "
    "opcodes writing scratch registers, terminated by a single RTN.",
)
SLC101 = _rule(
    "SLC101", "slice-acyclicity", Severity.ERROR,
    "Scratch-file dataflow inside a slice must be acyclic and "
    "initialized: instruction i writes s_i and reads only s_j with "
    "j < i; the RTN returns the root's scratch register.",
)
SLC102 = _rule(
    "SLC102", "rcmp-wiring", Severity.ERROR,
    "Every RCMP must target its registered slice's entry, own that "
    "slice, and carry plain register/immediate address operands.",
)
SLC103 = _rule(
    "SLC103", "rec-placement-clobber", Severity.ERROR,
    "Every checkpointed (Hist) slice input needs exactly one matching "
    "REC planted adjacent to its producer, with no instruction between "
    "the value's definition point and the REC clobbering a checkpointed "
    "register (slice closure).",
)
SLC104 = _rule(
    "SLC104", "live-leaf-clobber", Severity.ERROR,
    "A slice input classified LIVE_REG reads an architectural register "
    "at recompute time; no path from the leaf's producer to the RCMP "
    "may redefine that register.",
)
SLC105 = _rule(
    "SLC105", "rewrite-shape", Severity.ERROR,
    "The rewritten main region must be the original instruction stream "
    "with loads swapped for their RCMPs and RECs inserted — nothing "
    "reordered, dropped, or invented.",
)
SLC106 = _rule(
    "SLC106", "leaf-lowering-consistency", Severity.ERROR,
    "Lowered slice instructions must agree with the slice IR: CONST "
    "inputs as immediates, LIVE_REG inputs as register reads, HIST "
    "inputs as HistRef(leaf_id, slot) operands matching the REC plan.",
)
SLC107 = _rule(
    "SLC107", "checkpoint-load-conflict", Severity.ERROR,
    "A load serving as another slice's checkpoint source must keep "
    "executing: it can never itself be swapped for an RCMP.",
)

# ----------------------------------------------------------------------
# Cost / budget rules.
# ----------------------------------------------------------------------
CST200 = _rule(
    "CST200", "cost-bound", Severity.ERROR,
    "Recorded slice costs must re-derive from the energy model, and "
    "under probabilistic selection every embedded slice must respect "
    "its budget: E_rc (selection) < E_ld (estimated).",
)
CST201 = _rule(
    "CST201", "slice-size-bounds", Severity.ERROR,
    "Slice size, height, scratch-register demand, and Hist leaf ids "
    "must sit within the compiler options' bounds and match the "
    "embedded region's metadata.",
)

# ----------------------------------------------------------------------
# Dead-store soundness.
# ----------------------------------------------------------------------
DST300 = _rule(
    "DST300", "deadstore-soundness", Severity.ERROR,
    "A store may only be reported elidable when every load that ever "
    "consumed one of its values is swapped for recomputation; eliding "
    "a store that feeds a live load breaks the fallback path.",
)

# ----------------------------------------------------------------------
# Region analysis (informational artifacts).
# ----------------------------------------------------------------------
REG400 = _rule(
    "REG400", "region-summary", Severity.INFO,
    "Summary of batchable straight-line regions and self-loops (the "
    "fast-backend batching precondition).",
)

# ----------------------------------------------------------------------
# Codebase layering.
# ----------------------------------------------------------------------
LAY500 = _rule(
    "LAY500", "layering-violation", Severity.ERROR,
    "A module imports across a forbidden layer boundary (the "
    "semantics/timing/observability split).",
)
LAY501 = _rule(
    "LAY501", "import-cycle", Severity.ERROR,
    "Module-level imports form a cycle.",
)

# ----------------------------------------------------------------------
# Static-vs-dynamic cross check.
# ----------------------------------------------------------------------
XCK600 = _rule(
    "XCK600", "oracle-disagreement", Severity.ERROR,
    "The static verifier passed an artifact the dynamic oracle rejects "
    "— a soundness hole in the rule set; always a hard error.",
)

# ----------------------------------------------------------------------
# Harness failures.
# ----------------------------------------------------------------------
GEN000 = _rule(
    "GEN000", "analysis-error", Severity.ERROR,
    "The artifact could not be compiled or analyzed at all; nothing "
    "below this point was checked.",
)


@dataclasses.dataclass(frozen=True)
class Finding:
    """One diagnostic emitted by one rule against one artifact."""

    rule_id: str
    message: str
    program: str = ""
    pc: Optional[int] = None
    slice_id: Optional[int] = None
    severity: Optional[Severity] = None  # None = the rule's default

    @property
    def rule(self) -> Rule:
        return RULES[self.rule_id]

    @property
    def effective_severity(self) -> Severity:
        return self.severity if self.severity is not None else self.rule.severity

    @property
    def location(self) -> str:
        parts = []
        if self.pc is not None:
            parts.append(f"pc {self.pc}")
        if self.slice_id is not None:
            parts.append(f"slice {self.slice_id}")
        return ", ".join(parts)

    def __str__(self) -> str:
        where = f" [{self.location}]" if self.location else ""
        program = f"{self.program}: " if self.program else ""
        return (
            f"{self.effective_severity.value.upper()} {self.rule_id} "
            f"{program}{self.message}{where}"
        )

    def to_json(self) -> dict:
        return {
            "rule": self.rule_id,
            "severity": self.effective_severity.value,
            "program": self.program,
            "pc": self.pc,
            "slice_id": self.slice_id,
            "message": self.message,
        }


@dataclasses.dataclass
class LintReport:
    """Every finding the verifier produced for one artifact."""

    program: str
    findings: List[Finding] = dataclasses.field(default_factory=list)

    def add(
        self,
        rule: Rule,
        message: str,
        pc: Optional[int] = None,
        slice_id: Optional[int] = None,
        severity: Optional[Severity] = None,
    ) -> Finding:
        finding = Finding(
            rule_id=rule.rule_id,
            message=message,
            program=self.program,
            pc=pc,
            slice_id=slice_id,
            severity=severity,
        )
        self.findings.append(finding)
        return finding

    def extend(self, findings: List[Finding]) -> None:
        self.findings.extend(findings)

    def by_severity(self, severity: Severity) -> List[Finding]:
        return [f for f in self.findings if f.effective_severity is severity]

    @property
    def errors(self) -> List[Finding]:
        return self.by_severity(Severity.ERROR)

    @property
    def ok(self) -> bool:
        """True when nothing gate-worthy was found (static PASS)."""
        return not self.errors

    def rule_ids(self) -> List[str]:
        return sorted({f.rule_id for f in self.findings})

    def to_json(self) -> dict:
        return {
            "program": self.program,
            "ok": self.ok,
            "findings": [f.to_json() for f in self.findings],
        }

