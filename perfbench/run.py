"""Out-of-process benchmark of the AMNESIAC reproduction.

Run from the repository root::

    python perfbench/run.py --seed 0                  # all four workloads
    python perfbench/run.py --workload lint-suite --seed 3 --seconds 12
    python perfbench/run.py --seed 0 --trace          # per-layer table
    python perfbench/run.py --seed 0 --sets 2         # repeatability check

Each workload runs in its own fresh ``python`` process, one after
another (closed loop, one client).  End-to-end metrics are process CPU
time scaled to reference host speed (see ``metrics.py``), with tracing
off; ``--trace`` runs the workload untraced and
then traced, and reports the per-layer metrics, the tracing overhead,
and whether both runs simulated identical results.  The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for the catalogue.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional

import layers
import metrics

ROOT = metrics.ROOT
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
CHILD = ROOT / "perfbench" / "child.py"

#: Stripped from the workload environment: each would change what runs.
PINNED_OUT = (
    "REPRO_BACKEND", "REPRO_JOBS", "REPRO_CACHE_DIR", "REPRO_LEDGER_DIR",
    "REPRO_REGION_ARTIFACTS",
)
#: Set-up runs per end-to-end measurement (the workload process + the rest).
SETUP_SAMPLES = 3
#: Every invocation must finish within this many wall seconds.
DEADLINE_S = 170.0
STEAL_WARNING = 0.10


class ChildFailed(RuntimeError):
    pass


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in PINNED_OUT}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: List[str], deadline: float) -> dict:
    """Run one workload process to completion; its last stdout line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed("out of time before starting a workload process")
    try:
        done = subprocess.run(
            [sys.executable, str(CHILD), *args],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"workload process timed out: {' '.join(args)}") from None
    if done.returncode != 0:
        tail = "\n".join(done.stderr.strip().splitlines()[-15:])
        raise ChildFailed(f"workload process exited {done.returncode}:\n{tail}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """End-to-end metrics of one workload, tracing off."""
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups = [
        run_child(base + ["--setup-only"], deadline) for _ in range(SETUP_SAMPLES - 1)
    ]
    report = run_child(base, deadline)
    values = metrics.end_to_end(report, setups)
    notes = metrics.diagnostics(report)
    notes["setup_samples"] = [metrics.scaled_setup(r) for r in [report, *setups]]
    return {
        "report": report,
        "metrics": values,
        "notes": notes,
        "correct": report["failed"] == 0,
        "problems": report["problems"],
    }


def measure_traced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """Per-layer metrics from a traced run, checked against an untraced one."""
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    plain = run_child(base, deadline)
    OUT.mkdir(parents=True, exist_ok=True)
    trace_path = OUT / f"trace-{workload}-seed{seed}.json"
    traced = run_child(base + ["--trace-out", str(trace_path)], deadline)
    units = layers.per_layer_units()
    values = {name: (traced["per_layer"][name], units[name]) for name in traced["per_layer"]}
    # Both runs at reference speed, so host drift between them cancels.
    plain_s = metrics.scaled_times(plain)[1]
    traced_s = metrics.scaled_times(traced)[1]
    values["bench.trace_overhead_frac"] = ((traced_s - plain_s) / plain_s, "ratio")
    values["host.wall_s"] = (traced["wall_s"], "s")
    values["host.cpu_s"] = (traced["cpu_s"], "s")
    values["host.steal_frac"] = (traced["steal_frac"], "ratio")
    problems = plain["problems"] + traced["problems"]
    problems += [f"trace: {p}" for p in traced["trace_problems"]]
    if plain["digests"] != traced["digests"]:
        problems.append("traced and untraced runs simulated different results")
    notes = metrics.diagnostics(traced)
    notes["trace_file"] = str(trace_path.relative_to(ROOT))
    return {
        "report": {
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "steal_frac": traced["steal_frac"],
        },
        "metrics": values,
        "notes": notes,
        "correct": not problems,
        "problems": problems,
    }


def provenance(seed: int, seconds: float) -> dict:
    git_sha = "unknown"
    if (ROOT / ".git").exists():  # else git would search the parent directories
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT, capture_output=True, text=True, timeout=10,
            )
            git_sha = done.stdout.strip() or git_sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "git_sha": git_sha,
        "python": platform.python_version(),
        "nproc": nproc,
        "seed": seed,
        "seconds": seconds,
    }


def check_names(contract: dict) -> None:
    """The declared metrics must be exactly the ones this code emits."""
    declared = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    if declared != metrics.END_TO_END_UNITS:
        raise SystemExit(f"BENCHMARK.json end_to_end disagrees with metrics.py: {declared}")
    declared = {m["name"]: m["unit"] for m in contract["per_layer"]}
    if declared != layers.per_layer_units():
        raise SystemExit("BENCHMARK.json per_layer disagrees with layers.py")


def show(workload: str, result: dict, bounds: Dict[str, float]) -> None:
    print(f"== {workload}")
    for name, (value, unit) in sorted(result["metrics"].items()):
        bound = f"  (bound {100 * bounds[name]:.0f}%)" if name in bounds else ""
        print(f"  {name:<34} {value:>16.6g} {unit}{bound}")
    for name, value in result["notes"].items():
        print(f"  # {name}: {value}")
    for problem in result["problems"]:
        print(f"  ! {problem}")
    steal = result["report"]["steal_frac"]
    if steal > STEAL_WARNING:
        print(f"warning: {workload}: hypervisor steal {100 * steal:.1f}% of CPU "
              f"ticks; timings are suspect", file=sys.stderr)


def compare_sets(sets: List[Dict[str, dict]], bounds: Dict[str, float]) -> bool:
    """Print set A vs each later set; True when every metric agrees."""
    agree = True
    first = sets[0]
    print(f"{'workload':<16} {'metric':<14} {'set A':>12} {'set B':>12} "
          f"{'|d|/A':>8} {'bound':>6}  verdict")
    for later in sets[1:]:
        for workload, result in first.items():
            for name, (a, _) in result["metrics"].items():
                b = later[workload]["metrics"][name][0]
                delta = abs(b - a) / a if a else float("inf")
                ok = delta <= bounds[name]
                agree &= ok
                print(f"{workload:<16} {name:<14} {a:>12.6g} {b:>12.6g} "
                      f"{100 * delta:>7.2f}% {100 * bounds[name]:>5.0f}%  "
                      f"{'ok' if ok else 'DISAGREE'}")
    return agree


def main(argv: Optional[List[str]] = None) -> int:
    contract = metrics.load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"],
                        help="CPU seconds of timed work to ask each workload for")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics instead")
    parser.add_argument("--sets", type=int, default=1,
                        help="repeat every workload this many times, alternating "
                             "order, and compare each set with the first")
    args = parser.parse_args(argv)
    if args.sets < 1 or (args.trace and args.sets > 1):
        parser.error("--sets takes a positive count, and only without --trace")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    check_names(contract)
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    workloads = args.workload or names
    deadline = time.monotonic() + DEADLINE_S * args.sets * len(workloads)

    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(ROOT / "perfbench"), quiet=1, maxlevels=0)
    run = measure_traced if args.trace else measure
    sets: List[Dict[str, dict]] = []
    try:
        for index in range(args.sets):
            order = workloads if index % 2 == 0 else workloads[::-1]
            sets.append({w: run(w, args.seed, args.seconds, deadline) for w in order})
    except ChildFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    results = {w: sets[-1][w] for w in workloads}
    for workload, result in results.items():
        show(workload, result, bounds)
    agree = compare_sets(sets, bounds) if args.sets > 1 else True
    OUT.mkdir(parents=True, exist_ok=True)
    record = {
        "provenance": provenance(args.seed, args.seconds),
        "trace": bool(args.trace),
        "sets": [
            {w: {"metrics": r["metrics"], "notes": r["notes"], "problems": r["problems"]}
             for w, r in one.items()}
            for one in sets
        ],
    }
    label = workloads[0] if len(workloads) == 1 else "all"
    suffix = "-trace" if args.trace else ""
    path = OUT / f"results-{label}-seed{args.seed}{suffix}.json"
    path.write_text(json.dumps(record, indent=1))

    correct = all(r["correct"] for one in sets for r in one.values())
    if len(workloads) == 1:
        values = results[workloads[0]]["metrics"]
    else:
        values = {f"{w}.{n}": v for w, r in results.items() for n, v in r["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["report"]["attempted"] for r in results.values()),
        "failed": sum(r["report"]["failed"] for r in results.values()),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in values.items()},
    }))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
