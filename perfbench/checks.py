"""Output checks: each returns a problem string, or None when correct.

Every workload checks what it produced against an independent
reference — the committed ``results/*.txt`` reports, the classic run's
final state, the oracle's verdict, or the verifier's findings — and a
unit that fails any check counts against ``failed``.  The functions
take plain data (or the program's result objects, by duck typing) so
the tests can hand them tampered inputs.
"""

from __future__ import annotations

import pathlib
from typing import Dict, Optional

#: Mean absolute error (pp) of the Fig 3-5 and Table 5 point references
#: at the committed results; a rise means the reproduction drifted.
FIDELITY_MAE_PP = 8.048


def golden_problem(experiment_id: str, text: str, results_dir: pathlib.Path) -> Optional[str]:
    """A rendered report must equal ``results/<id>.txt`` byte for byte."""
    path = results_dir / f"{experiment_id}.txt"
    try:
        golden = path.read_text()
    except FileNotFoundError:
        return f"golden {path.name} is missing"
    rendered = text + "\n"
    if rendered == golden:
        return None
    for line, (got, want) in enumerate(
        zip(rendered.splitlines(), golden.splitlines()), start=1
    ):
        if got != want:
            return f"line {line} differs from {path.name}: {got!r} != {want!r}"
    return f"length differs from {path.name}"


def state_problem(registers, memory: dict, baseline_registers, baseline_memory: dict) -> Optional[str]:
    """Final registers and memory must equal the classic baseline's."""
    for index, (want, got) in enumerate(zip(baseline_registers, registers)):
        if want != got:
            return f"r{index} = {got!r}, classic left {want!r}"
    if memory != baseline_memory:
        diverging = sorted(
            address
            for address in set(memory) | set(baseline_memory)
            if memory.get(address) != baseline_memory.get(address)
        )
        first = diverging[0]
        return (
            f"memory[{first:#x}] = {memory.get(first)!r}, classic left "
            f"{baseline_memory.get(first)!r} ({len(diverging)} words differ)"
        )
    return None


def table_cells(text: str) -> Dict[str, Dict[str, str]]:
    """Row -> column -> cell of a rendered gain table (title line first)."""
    lines = text.splitlines()
    headers = lines[1].split()
    return {
        cells[0]: dict(zip(headers[1:], cells[1:]))
        for cells in (line.split() for line in lines[3:])
        if cells
    }


def edp_cell_problem(cells: Dict[str, Dict[str, str]], benchmark: str, policy: str, gain: float) -> Optional[str]:
    """A capacity-600 EDP gain must print as the Figure 3 cell does."""
    want = cells.get(benchmark, {}).get(policy)
    got = f"{gain:.2f}"
    if got != want:
        return f"{benchmark}/{policy} EDP gain {got} != fig3 cell {want}"
    return None


def verdict_problem(verdict) -> Optional[str]:
    """An oracle verdict passes when it is ``ok`` or ``invalid``."""
    if verdict.failures:
        return verdict.summary()
    return None


def lint_problem(report) -> Optional[str]:
    """Any ERROR-severity verifier finding fails the unit."""
    errors = report.errors
    if errors:
        return f"{len(errors)} ERROR finding(s), first: {errors[0]}"
    return None


def fidelity_problem(mae_pp: float, limit: float = FIDELITY_MAE_PP) -> Optional[str]:
    """The fidelity error may not rise above its committed value."""
    if round(mae_pp, 3) > limit:
        return f"fidelity MAE {mae_pp:.3f} pp > {limit:.3f} pp"
    return None
