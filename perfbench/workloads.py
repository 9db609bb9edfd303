"""The benchmark's four workloads.

Each workload runs in a fresh process.  ``setup`` imports what it needs
from ``repro`` (imports are part of set-up time, and they must happen
after the traced run has installed its wrappers) and builds any state
the timed units share.  A *round* is the workload's fixed multiset of
units in an order drawn from the seed; the multiset never depends on
the seed, so runs with different seeds measure the same work and their
spread is measurement noise, not input mix (drawing inputs per seed
spreads per-unit CPU by 6-18% on the fuzz pool alone).  Units return
their outputs; checks and digests run outside the unit's timing.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Optional, Tuple

import checks
from metrics import ROOT

RESULTS_DIR = ROOT / "results"
BACKEND = "fast-batched"


def shuffled(items, seed: int, round_index: int) -> list:
    order = list(items)
    random.Random(seed * 1_000_003 + round_index).shuffle(order)
    return order


def stats_key(stats) -> tuple:
    """RunStats as a canonical tuple (Counter keys sorted by name)."""
    fields = []
    for field in dataclasses.fields(stats):
        value = getattr(stats, field.name)
        if isinstance(value, dict):
            value = tuple(sorted((str(key), count) for key, count in value.items()))
        fields.append((field.name, value))
    return tuple(fields)


def outcome_key(outcome) -> tuple:
    """What one simulated run produced: stats, energy, modelled time."""
    return (stats_key(outcome.stats), outcome.energy_nj, outcome.time_ns)


class Workload:
    """Interface of one workload (see the module docstring)."""

    name = ""
    #: CPU seconds one round takes on the reference box; ``--seconds``
    #: asks for ``max(1, round(seconds / nominal_round_s))`` rounds.
    nominal_round_s = 1.0

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def round_units(self, seed: int, round_index: int) -> list:
        raise NotImplementedError

    def run_unit(self, unit):
        raise NotImplementedError

    def check_unit(self, unit, output) -> Optional[str]:
        raise NotImplementedError

    def digest_unit(self, unit, output) -> object:
        raise NotImplementedError

    def end_round(self):
        """Timed work after a round's units (default: none)."""
        return None

    def check_round(self, output) -> List[Tuple[str, Optional[str]]]:
        """(item, problem or None) per round-level output checked."""
        return []

    def extra(self) -> Dict[str, object]:
        """Workload-specific diagnostics for the report."""
        return {}


class PaperFigures(Workload):
    """Cold all-policy evaluation of the 11 responsive kernels, then renders."""

    name = "paper-figures"
    nominal_round_s = 26.0
    EXPERIMENTS = ("fig3", "fig4", "fig5", "table4", "table5", "fig6", "fig7", "fig8")
    SCORED = ("fig3", "fig4", "fig5", "table5")

    def setup(self, seed):
        from repro.bench.paper_reference import fidelity_metrics
        from repro.harness.experiments import run_experiment
        from repro.harness.runner import SuiteRunner
        from repro.workloads.suite import RESPONSIVE

        self._runner_cls = SuiteRunner
        self._render = run_experiment
        self._fidelity = fidelity_metrics
        self._kernels = RESPONSIVE
        self.fidelity_mae_pp = None

    def round_units(self, seed, round_index):
        # A new runner per round: every evaluation is a cache miss.  The
        # runner keeps each result, so a unit's garbage collections scan
        # what the units before it left (6-15% of a unit's CPU); the
        # paper's figure order, not a shuffle, keeps that the same for
        # every seed.
        self.runner = self._runner_cls(backend=BACKEND, jobs=1)
        return list(self._kernels)

    def run_unit(self, kernel):
        return self.runner.result(kernel)

    def check_unit(self, kernel, comparisons):
        for policy, comparison in comparisons.items():
            classic = comparison.classic.cpu
            problem = checks.state_problem(
                comparison.amnesic.cpu.registers,
                comparison.amnesic.cpu.memory.snapshot(),
                classic.registers,
                classic.memory.snapshot(),
            )
            if problem:
                return f"{policy}: {problem}"
        return None

    def digest_unit(self, kernel, comparisons):
        first = next(iter(comparisons.values()))
        return (
            outcome_key(first.classic),
            [(policy, outcome_key(c.amnesic)) for policy, c in comparisons.items()],
        )

    def end_round(self):
        return {e: self._render(e, self.runner) for e in self.EXPERIMENTS}

    def check_round(self, reports):
        items = [
            (e, checks.golden_problem(e, reports[e].text, RESULTS_DIR))
            for e in self.EXPERIMENTS
        ]
        errors = [
            metric.abs_error
            for e in self.SCORED
            for metric in self._fidelity(reports[e])
        ]
        self.fidelity_mae_pp = sum(errors) / len(errors)
        items.append(("fidelity", checks.fidelity_problem(self.fidelity_mae_pp)))
        self.runner = None
        return items

    def extra(self):
        return {"fidelity_mae_pp": self.fidelity_mae_pp}


class MicroarchSweep(Workload):
    """Compile once, then run the binaries across policies and Hist sizes."""

    name = "microarch-sweep"
    nominal_round_s = 9.0
    #: Two memory-bound kernels of near-equal run cost, so the per-unit
    #: times form one cluster and their median is not a gap between two.
    KERNELS = ("mcf", "ca")
    CAPACITIES = (1, 2, 8, 64, 600)

    def setup(self, seed):
        from repro.core.execution import percent_gain, prepare_evaluation, run_amnesic
        from repro.core.policies import POLICY_NAMES
        from repro.energy.tech import paper_energy_model
        from repro.workloads.suite import get

        self._run = run_amnesic
        self._gain = percent_gain
        self.model = paper_energy_model()
        self.setups = {}
        self.baselines = {}
        for kernel in self.KERNELS:
            setup = prepare_evaluation(
                get(kernel).instantiate(1.0), self.model, backend=BACKEND
            )
            setup.compilation_for("Oracle")
            classic = setup.classic.cpu
            self.setups[kernel] = setup
            self.baselines[kernel] = (list(classic.registers), classic.memory.snapshot())
        self.grid = [
            (kernel, policy, capacity)
            for kernel in self.KERNELS
            for policy in POLICY_NAMES
            for capacity in self.CAPACITIES
        ]
        self._fig3 = None

    def round_units(self, seed, round_index):
        return shuffled(self.grid, seed, round_index)

    def run_unit(self, unit):
        kernel, policy, capacity = unit
        return self._run(
            self.setups[kernel].compilation_for(policy),
            policy,
            self.model,
            hist_capacity=capacity,
            backend=BACKEND,
            verify=True,
        )

    def check_unit(self, unit, outcome):
        kernel, policy, capacity = unit
        registers, memory = self.baselines[kernel]
        problem = checks.state_problem(
            outcome.cpu.registers, outcome.cpu.memory.snapshot(), registers, memory
        )
        if problem or capacity != 600:
            return problem
        if self._fig3 is None:
            self._fig3 = checks.table_cells((RESULTS_DIR / "fig3.txt").read_text())
        gain = self._gain(self.setups[kernel].classic.edp, outcome.edp)
        return checks.edp_cell_problem(self._fig3, kernel, policy, gain)

    def digest_unit(self, unit, outcome):
        return outcome_key(outcome)


class FuzzOracle(Workload):
    """Differential oracle plus backend equivalence on small generated programs."""

    name = "fuzz-oracle"
    nominal_round_s = 12.0
    #: The fixed program pool: ``random_spec(program_seed(CAMPAIGN, i))``.
    CAMPAIGN = 0
    POOL = 100

    def setup(self, seed):
        from repro.fuzz import (
            check_backend_equivalence,
            check_spec,
            default_fuzz_model,
            materialize,
            program_seed,
            random_spec,
        )

        self._spec = lambda index: random_spec(program_seed(self.CAMPAIGN, index))
        self._check = check_spec
        self._backend_check = check_backend_equivalence
        self._materialize = materialize
        self.model = default_fuzz_model()
        self.invalid = 0

    def round_units(self, seed, round_index):
        return shuffled(range(self.POOL), seed, round_index)

    def run_unit(self, index):
        spec = self._spec(index)
        verdict = self._check(spec, model=self.model)
        backend = self._backend_check(
            self._materialize(spec), spec, model=self.model, backend=BACKEND
        )
        return verdict, backend

    def check_unit(self, index, output):
        verdict, backend = output
        self.invalid += int(verdict.invalid)
        return checks.verdict_problem(verdict) or checks.verdict_problem(backend)

    def digest_unit(self, index, output):
        return tuple((v.summary(), v.slice_count) for v in output)

    def extra(self):
        return {"fuzz_invalid": self.invalid}


class LintSuite(Workload):
    """Profile, compile and statically verify every kernel of the suite."""

    name = "lint-suite"
    nominal_round_s = 23.0

    def setup(self, seed):
        from repro.compiler.amnesic_pass import PassOptions
        from repro.energy.tech import paper_energy_model
        from repro.staticcheck.lint import lint_program
        from repro.workloads.suite import REGISTRY

        self._lint = lint_program
        self._options = PassOptions()
        self._registry = REGISTRY
        self.model = paper_energy_model()

    def round_units(self, seed, round_index):
        return shuffled(self._registry.names(), seed, round_index)

    def run_unit(self, name):
        program = self._registry.get(name).instantiate(1.0)
        result, _ = self._lint(name, program, self.model, self._options, backend=BACKEND)
        return result

    def check_unit(self, name, result):
        return checks.lint_problem(result.report)

    def digest_unit(self, name, result):
        return (sorted(str(f) for f in result.report.findings), result.slice_count)


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (PaperFigures, MicroarchSweep, FuzzOracle, LintSuite)
}
