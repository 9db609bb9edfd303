"""Each output check passes correct output and bites on a broken one."""

from repro.fuzz.generator import random_spec
from repro.fuzz.oracle import OracleFailure, OracleVerdict
from repro.staticcheck import diagnostics as D
from repro.staticcheck.diagnostics import LintReport

import checks
from workloads import RESULTS_DIR


def test_golden_matches_and_a_tampered_golden_bites(tmp_path):
    text = (RESULTS_DIR / "fig3.txt").read_text()[:-1]
    assert checks.golden_problem("fig3", text, RESULTS_DIR) is None
    (tmp_path / "fig3.txt").write_text(text.replace("58.82", "58.83") + "\n")
    problem = checks.golden_problem("fig3", text, tmp_path)
    assert "line 4" in problem
    assert checks.golden_problem("fig4", text, tmp_path) == "golden fig4.txt is missing"


def test_a_flipped_memory_word_bites():
    registers = [0, 1, 2]
    memory = {0: 5, 8: 7}
    assert checks.state_problem(registers, dict(memory), registers, memory) is None
    flipped = {**memory, 8: 7 ^ 1}
    assert "memory[0x8]" in checks.state_problem(registers, flipped, registers, memory)
    assert "r2" in checks.state_problem([0, 1, 3], memory, registers, memory)


def test_fig3_cells_and_a_wrong_gain():
    cells = checks.table_cells((RESULTS_DIR / "fig3.txt").read_text())
    assert cells["mcf"]["Oracle"] == "58.82"
    assert cells["sr"]["Compiler"] == "-1.25"
    assert checks.edp_cell_problem(cells, "mcf", "Oracle", 58.8249) is None
    assert checks.edp_cell_problem(cells, "mcf", "Oracle", 58.83) is not None


def test_a_failing_verdict_bites_and_invalid_passes():
    spec = random_spec(1)
    assert checks.verdict_problem(OracleVerdict(spec=spec, policies=("FLC",))) is None
    invalid = OracleVerdict(spec=spec, policies=("FLC",), invalid=True)
    assert checks.verdict_problem(invalid) is None
    failing = OracleVerdict(
        spec=spec, policies=("FLC",),
        failures=[OracleFailure("FLC", "equivalence", "r3 = 1, classic read 2")],
    )
    assert "equivalence" in checks.verdict_problem(failing)


def test_an_injected_error_finding_bites():
    report = LintReport(program="mcf")
    report.add(D.REG400, "3 regions")
    assert checks.lint_problem(report) is None
    report.add(D.SLC104, "leaf clobbered before the RCMP")
    assert "1 ERROR" in checks.lint_problem(report)


def test_fidelity_may_not_rise():
    assert checks.fidelity_problem(8.048416) is None
    assert checks.fidelity_problem(7.5) is None
    assert checks.fidelity_problem(8.0489) is not None
