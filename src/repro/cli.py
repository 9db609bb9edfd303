"""Command-line interface: explore the suite and rerun the evaluation.

Usage (also available as ``python -m repro``)::

    repro list [--suite SPEC] [--responsive]
    repro run mcf [--policy FLC | --all-policies] [--scale 1.0]
    repro stats mcf [--policy FLC] [--scale 1.0]
    repro compile is [--scale 1.0]
    repro disasm bfs [--amnesic] [--limit 40]
    repro experiment fig3 [--scale 1.0] [--format json]
    repro experiments
    repro bench [--experiments fig4,table4] [--format json]
    repro profile fig4 [--scale 1.0] [--exact | --sample-every N]
    repro trace export run.jsonl -o run.trace.json
    repro trace validate run.trace.json
    repro lint [--benchmarks is,mcf] [--cross-check] [--prove-rules]
    repro lint --self
    repro runs list [--kind bench] [--target fig4] [--limit 20]
    repro runs show <run-id>
    repro runs diff <run-a> <run-b>
    repro cache stats [--format json]

Telemetry flags work globally and per-subcommand: ``--trace-out FILE``
streams span and per-RCMP decision events as JSONL, ``--metrics`` prints
the metrics registry once the command finishes, and ``--timeline N``
attaches the windowed microarchitectural sampler (one occupancy/
pressure sample every N retired instructions, recorded as ``timeline``
events in the trace).

Evaluation-engine flags (also global or per-subcommand): ``--jobs N``
fans benchmark evaluations over N worker processes (default:
``$REPRO_JOBS`` or serial), ``--cache-dir DIR`` persists evaluated
results on disk (default: ``$REPRO_CACHE_DIR`` or off), and
``--no-result-cache`` disables the disk cache even when the environment
configures one.

Cross-run observability: ``--ledger-dir DIR`` (or ``$REPRO_LEDGER_DIR``)
appends one schema-versioned manifest per ``run``/``stats``/
``experiment``/``bench`` invocation to a persistent run ledger; the
``repro runs`` family browses that history (``repro runs diff`` of two
``bench`` runs shows how fidelity to the paper moved).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import time
from typing import List, Optional

from .analysis.tables import render_table
from .compiler import compile_amnesic
from .core.backend import BACKEND_NAMES
from .core.policies import POLICY_NAMES
from .energy.tech import paper_energy_model
from .harness.experiments import EXPERIMENTS, run_experiment
from .harness.parallel import default_jobs
from .harness.runner import SuiteRunner
from .telemetry.runtime import get_telemetry, telemetry_session
from .telemetry.summary import render_metrics, render_summary
from .workloads.suite import REGISTRY, get


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    try:
        return _main(argv)
    except BrokenPipeError:
        # Output piped into `head` & co.; the consumer closing early is
        # not an error worth a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    trace_out = getattr(args, "trace_out", None)
    metrics = getattr(args, "metrics", False)
    timeline = getattr(args, "timeline", None)
    if not (trace_out or metrics or timeline):
        return args.handler(args)
    with telemetry_session(
        trace_path=trace_out, timeline_window=timeline
    ) as telemetry:
        code = args.handler(args)
        if metrics:
            print()
            print(render_metrics(telemetry.registry))
    if trace_out:
        print(f"telemetry events written to {trace_out}", file=sys.stderr)
    return code


def _add_telemetry_flags(command: argparse.ArgumentParser) -> None:
    """Accept the global telemetry flags after the subcommand too.

    ``default=SUPPRESS`` keeps a subcommand that omits the flag from
    clobbering a value parsed at the top level (``repro --metrics run
    mcf`` and ``repro run mcf --metrics`` are equivalent).
    """
    command.add_argument(
        "--trace-out", metavar="FILE", default=argparse.SUPPRESS,
        help="write telemetry events (spans, RCMP decisions) as JSONL",
    )
    command.add_argument(
        "--metrics", action="store_true", default=argparse.SUPPRESS,
        help="print the metrics registry when the command finishes",
    )
    command.add_argument(
        "--timeline", type=int, metavar="N", default=argparse.SUPPRESS,
        help="sample SFile/Hist/IBuff/cache occupancy every N retired "
             "instructions (recorded as timeline events)",
    )


def _add_runner_flags(command: argparse.ArgumentParser) -> None:
    """Accept the evaluation-engine flags after the subcommand too."""
    command.add_argument(
        "--jobs", type=int, metavar="N", default=argparse.SUPPRESS,
        help="evaluate benchmarks over N worker processes "
             "(default: $REPRO_JOBS or 1)",
    )
    command.add_argument(
        "--cache-dir", metavar="DIR", default=argparse.SUPPRESS,
        help="persist evaluated results under DIR "
             "(default: $REPRO_CACHE_DIR or no disk cache)",
    )
    command.add_argument(
        "--no-result-cache", action="store_true", default=argparse.SUPPRESS,
        help="disable the persistent result cache even if configured",
    )
    command.add_argument(
        "--backend", choices=BACKEND_NAMES, default=argparse.SUPPRESS,
        help="execution backend (default: $REPRO_BACKEND or classic)",
    )
    _add_ledger_flag(command)


def _add_ledger_flag(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--ledger-dir", metavar="DIR", default=argparse.SUPPRESS,
        help="append run manifests to the ledger under DIR "
             "(default: $REPRO_LEDGER_DIR or no ledger)",
    )


def _runner_options(args) -> dict:
    """SuiteRunner kwargs from parsed flags plus the environment."""
    jobs = getattr(args, "jobs", None)
    if jobs is None:
        jobs = default_jobs()
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is None:
        cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
    if getattr(args, "no_result_cache", False):
        cache_dir = None
    ledger_dir = getattr(args, "ledger_dir", None)
    if ledger_dir is None:
        ledger_dir = os.environ.get("REPRO_LEDGER_DIR") or None
    # backend=None lets SuiteRunner fall back to $REPRO_BACKEND.
    return {
        "jobs": jobs,
        "cache_dir": cache_dir,
        "backend": getattr(args, "backend", None),
        "ledger_dir": ledger_dir,
    }


def _ledger_session(runner):
    """An enabled telemetry context when a manifest will be collected.

    Manifests are assembled from the session registry and span tree, so
    recording needs telemetry on: reuse the ambient session when
    ``--trace-out``/``--metrics`` already opened one, otherwise open a
    private one.  With no ledger configured this is a no-op context
    yielding the ambient (possibly disabled) facade — the ledger stays
    strictly opt-in.
    """
    ambient = get_telemetry()
    if runner.ledger is None or ambient.enabled:
        return contextlib.nullcontext(ambient)
    return telemetry_session()


def _record_run(
    runner, kind, command, target, telemetry, wall_s, seed=None, fidelity=None
) -> None:
    """Append one manifest for a finished command (no-op without a ledger)."""
    if runner.ledger is None:
        return
    from .telemetry.ledger import collect_manifest

    manifest = collect_manifest(
        kind, command, target, telemetry, wall_s,
        runner_config=runner.describe(), seed=seed, fidelity=fidelity,
    )
    runner.record_manifest(manifest)
    print(
        f"ledger: recorded {kind} {manifest.run_id} in {runner.ledger.path}",
        file=sys.stderr,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AMNESIAC (ASPLOS 2017) reproduction toolkit",
    )
    parser.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="write telemetry events (spans, RCMP decisions) as JSONL",
    )
    parser.add_argument(
        "--metrics", action="store_true", default=False,
        help="print the metrics registry when the command finishes",
    )
    parser.add_argument(
        "--timeline", type=int, metavar="N", default=None,
        help="sample SFile/Hist/IBuff/cache occupancy every N retired "
             "instructions (recorded as timeline events)",
    )
    parser.add_argument(
        "--jobs", type=int, metavar="N", default=None,
        help="evaluate benchmarks over N worker processes "
             "(default: $REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="persist evaluated results under DIR "
             "(default: $REPRO_CACHE_DIR or no disk cache)",
    )
    parser.add_argument(
        "--no-result-cache", action="store_true", default=False,
        help="disable the persistent result cache even if configured",
    )
    parser.add_argument(
        "--backend", choices=BACKEND_NAMES, default=None,
        help="execution backend (default: $REPRO_BACKEND or classic)",
    )
    parser.add_argument(
        "--ledger-dir", metavar="DIR", default=None,
        help="append run manifests to the ledger under DIR "
             "(default: $REPRO_LEDGER_DIR or no ledger)",
    )
    sub = parser.add_subparsers(dest="command")

    list_cmd = sub.add_parser("list", help="list the benchmark suite")
    list_cmd.add_argument("--suite", help="filter by suite (SPEC/NAS/PARSEC/Rodinia)")
    list_cmd.add_argument(
        "--responsive", action="store_true",
        help="only the 11 responsive benchmarks",
    )
    list_cmd.set_defaults(handler=cmd_list)

    run_cmd = sub.add_parser("run", help="evaluate one benchmark")
    run_cmd.add_argument("benchmark")
    run_cmd.add_argument("--policy", default=None, choices=POLICY_NAMES)
    run_cmd.add_argument("--all-policies", action="store_true")
    run_cmd.add_argument("--scale", type=float, default=1.0)
    run_cmd.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output format (json is stable for scripting)",
    )
    _add_telemetry_flags(run_cmd)
    _add_runner_flags(run_cmd)
    run_cmd.set_defaults(handler=cmd_run)

    stats_cmd = sub.add_parser(
        "stats", help="run one benchmark with telemetry and summarise it"
    )
    stats_cmd.add_argument("benchmark", nargs="?", default=None)
    stats_cmd.add_argument("--policy", default=None, choices=POLICY_NAMES,
                           help="evaluate one policy (default: all)")
    stats_cmd.add_argument("--scale", type=float, default=1.0)
    stats_cmd.add_argument("--top", type=int, default=5,
                           help="hottest spans to list")
    stats_cmd.add_argument(
        "--from-trace", metavar="FILE", default=None,
        help="summarise a recorded JSONL trace instead of running",
    )
    stats_cmd.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (json is stable for scripting)",
    )
    _add_telemetry_flags(stats_cmd)
    _add_runner_flags(stats_cmd)
    stats_cmd.set_defaults(handler=cmd_stats)

    profile_cmd = sub.add_parser(
        "profile",
        help="hot-loop profile: per-opcode wall-clock and energy attribution",
    )
    profile_cmd.add_argument(
        "target",
        help="benchmark name (e.g. mcf) or experiment id (e.g. fig4)",
    )
    profile_cmd.add_argument("--scale", type=float, default=1.0)
    profile_cmd.add_argument(
        "--sample-every", type=int, default=None, metavar="N",
        help="attribute one sample every N dispatches (default: 16)",
    )
    profile_cmd.add_argument(
        "--exact", action="store_true",
        help="per-dispatch attribution (sample-every 1; slower, precise)",
    )
    profile_cmd.add_argument(
        "--top", type=int, default=0,
        help="rows to print (0 = all)",
    )
    profile_cmd.add_argument(
        "--fold-runs", action="store_true",
        help="fold classic/amnesic rows into one row per opcode",
    )
    profile_cmd.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output format (json is stable for scripting)",
    )
    profile_cmd.add_argument(
        "--backend", choices=BACKEND_NAMES, default=argparse.SUPPRESS,
        help="execution backend (profiled dispatch always runs the "
             "classic instrumented loop; this selects everything else)",
    )
    profile_cmd.set_defaults(handler=cmd_profile)

    trace_cmd = sub.add_parser(
        "trace", help="export and validate recorded telemetry traces"
    )
    trace_sub = trace_cmd.add_subparsers(dest="trace_command")
    trace_cmd.set_defaults(handler=lambda args: (trace_cmd.print_help(), 2)[1])
    export_cmd = trace_sub.add_parser(
        "export",
        help="convert a JSONL trace into Chrome/Perfetto trace_event JSON",
    )
    export_cmd.add_argument("trace", help="JSONL trace from --trace-out")
    export_cmd.add_argument(
        "-o", "--out", default=None,
        help="output path (default: <trace stem>.trace.json)",
    )
    export_cmd.set_defaults(handler=cmd_trace_export)
    validate_cmd = trace_sub.add_parser(
        "validate",
        help="structurally check an exported trace_event JSON file",
    )
    validate_cmd.add_argument("trace", help="exported .trace.json file")
    validate_cmd.set_defaults(handler=cmd_trace_validate)

    compile_cmd = sub.add_parser("compile", help="show a benchmark's slices")
    compile_cmd.add_argument("benchmark")
    compile_cmd.add_argument("--scale", type=float, default=1.0)
    _add_telemetry_flags(compile_cmd)
    compile_cmd.set_defaults(handler=cmd_compile)

    disasm_cmd = sub.add_parser("disasm", help="disassemble a benchmark")
    disasm_cmd.add_argument("benchmark")
    disasm_cmd.add_argument("--amnesic", action="store_true",
                            help="disassemble the rewritten amnesic binary")
    disasm_cmd.add_argument("--limit", type=int, default=60,
                            help="lines to print (0 = everything)")
    disasm_cmd.add_argument("--scale", type=float, default=1.0)
    disasm_cmd.set_defaults(handler=cmd_disasm)

    experiment_cmd = sub.add_parser("experiment", help="rerun one paper artifact")
    experiment_cmd.add_argument("experiment_id", choices=sorted(EXPERIMENTS))
    experiment_cmd.add_argument("--scale", type=float, default=1.0)
    experiment_cmd.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (json emits the experiment's data payload)",
    )
    _add_telemetry_flags(experiment_cmd)
    _add_runner_flags(experiment_cmd)
    experiment_cmd.set_defaults(handler=cmd_experiment)

    experiments_cmd = sub.add_parser("experiments", help="list the registry")
    experiments_cmd.set_defaults(handler=cmd_experiments)

    report_cmd = sub.add_parser(
        "report", help="write a full markdown evaluation report"
    )
    report_cmd.add_argument("--out", default="results/report.md")
    report_cmd.add_argument("--scale", type=float, default=1.0)
    report_cmd.add_argument(
        "--experiments", nargs="*", default=None,
        help="experiment ids (default: every table/figure except table6)",
    )
    _add_telemetry_flags(report_cmd)
    _add_runner_flags(report_cmd)
    report_cmd.set_defaults(handler=cmd_report)

    bench_cmd = sub.add_parser(
        "bench",
        help="score the reproduction's fidelity against the paper",
    )
    bench_cmd.add_argument(
        "--experiments", metavar="IDS", default=None,
        help="comma-separated fidelity-scored experiment ids "
             "(default: all of them)",
    )
    bench_cmd.add_argument("--scale", type=float, default=1.0)
    bench_cmd.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (json is stable for scripting)",
    )
    _add_telemetry_flags(bench_cmd)
    _add_runner_flags(bench_cmd)
    bench_cmd.set_defaults(handler=cmd_bench)

    fuzz_cmd = sub.add_parser(
        "fuzz",
        help="differentially fuzz the amnesic pipeline against classic "
             "execution",
    )
    fuzz_cmd.add_argument(
        "--seed", type=int, default=0,
        help="campaign seed; the same seed replays the same programs",
    )
    fuzz_cmd.add_argument(
        "--iterations", type=int, default=200,
        help="programs to generate and check",
    )
    fuzz_cmd.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="stop generating once this much wall-clock time has elapsed",
    )
    fuzz_cmd.add_argument(
        "--corpus-dir", metavar="DIR", default=None,
        help="bank shrunk counterexamples here (and dedupe against it)",
    )
    fuzz_cmd.add_argument(
        "--policies", metavar="NAMES", default=None,
        help="comma-separated scheduler policies (default: all five)",
    )
    fuzz_cmd.add_argument(
        "--no-shrink", action="store_true",
        help="report counterexamples without minimising them",
    )
    fuzz_cmd.add_argument(
        "--max-counterexamples", type=int, default=5,
        help="stop the campaign after this many distinct failures",
    )
    fuzz_cmd.add_argument(
        "--replay", action="store_true",
        help="replay the --corpus-dir entries instead of generating",
    )
    fuzz_cmd.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (json is stable for scripting)",
    )
    fuzz_cmd.add_argument(
        "--backend", choices=BACKEND_NAMES, default=None,
        help="backend under test (default: $REPRO_BACKEND or classic); "
             "the reference always runs classic, and a non-classic "
             "backend's plain and amnesic runs must match it exactly",
    )
    _add_telemetry_flags(fuzz_cmd)
    fuzz_cmd.set_defaults(handler=cmd_fuzz)

    lint_cmd = sub.add_parser(
        "lint",
        help="static slice-safety verifier and region analyzer over "
             "compiled artifacts",
    )
    lint_cmd.add_argument(
        "--benchmarks", metavar="NAMES", default=None,
        help="comma-separated kernels to lint (default: the whole suite)",
    )
    lint_cmd.add_argument(
        "--scale", type=float, default=1.0,
        help="workload scale factor for kernel compilation",
    )
    lint_cmd.add_argument(
        "--corpus-dir", metavar="DIR", default="tests/corpus",
        help="fuzz-corpus directory to sweep (default: tests/corpus)",
    )
    lint_cmd.add_argument(
        "--no-kernels", action="store_true",
        help="skip the kernel suite",
    )
    lint_cmd.add_argument(
        "--no-corpus", action="store_true",
        help="skip the fuzz corpus",
    )
    lint_cmd.add_argument(
        "--self", dest="self_only", action="store_true",
        help="run only the codebase layering lint (import-graph rules)",
    )
    lint_cmd.add_argument(
        "--cross-check", action="store_true",
        help="compare every corpus entry's static verdict against the "
             "dynamic oracle (static PASS + dynamic FAIL is a hard error)",
    )
    lint_cmd.add_argument(
        "--prove-rules", action="store_true",
        help="run the deliberately broken compiler passes; each must be "
             "flagged with its expected rule id",
    )
    lint_cmd.add_argument(
        "--regions-out", metavar="DIR", default=None,
        help="write schema-versioned region artifacts here (one JSON "
             "per program)",
    )
    lint_cmd.add_argument(
        "--backend", choices=BACKEND_NAMES, default=None,
        help="execution backend for profiling runs",
    )
    lint_cmd.add_argument(
        "--max-findings", type=int, default=0, metavar="N",
        help="truncate each program's finding list (0 = show all)",
    )
    lint_cmd.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (json is stable for scripting)",
    )
    _add_telemetry_flags(lint_cmd)
    lint_cmd.set_defaults(handler=cmd_lint)

    runs_cmd = sub.add_parser(
        "runs", help="browse the persistent run ledger"
    )
    runs_sub = runs_cmd.add_subparsers(dest="runs_command")
    runs_cmd.set_defaults(handler=lambda args: (runs_cmd.print_help(), 2)[1])

    runs_list = runs_sub.add_parser(
        "list", help="table of recorded runs, most recent last"
    )
    _add_ledger_flag(runs_list)
    runs_list.add_argument(
        "--kind", default=None,
        help="filter by entry kind (run/stats/experiment/bench)",
    )
    runs_list.add_argument(
        "--target", default=None,
        help="filter by benchmark/experiment target",
    )
    runs_list.add_argument(
        "--backend", default=None, help="filter by execution backend"
    )
    runs_list.add_argument(
        "--limit", type=int, default=20, metavar="N",
        help="show only the most recent N runs (0 = all)",
    )
    runs_list.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (json is stable for scripting)",
    )
    runs_list.set_defaults(handler=cmd_runs_list)

    runs_show = runs_sub.add_parser(
        "show", help="every recorded field of one run"
    )
    _add_ledger_flag(runs_show)
    runs_show.add_argument("run_id", help="run id (unique prefixes accepted)")
    runs_show.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (json is stable for scripting)",
    )
    runs_show.set_defaults(handler=cmd_runs_show)

    runs_diff = runs_sub.add_parser(
        "diff", help="per-field deltas between two recorded runs"
    )
    _add_ledger_flag(runs_diff)
    runs_diff.add_argument("run_a", help="baseline run id (prefix ok)")
    runs_diff.add_argument("run_b", help="candidate run id (prefix ok)")
    runs_diff.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (json is stable for scripting)",
    )
    runs_diff.set_defaults(handler=cmd_runs_diff)

    cache_cmd = sub.add_parser(
        "cache", help="inspect the persistent result cache"
    )
    cache_sub = cache_cmd.add_subparsers(dest="cache_command")
    cache_cmd.set_defaults(handler=lambda args: (cache_cmd.print_help(), 2)[1])
    cache_stats_cmd = cache_sub.add_parser(
        "stats", help="entry count, bytes on disk, and entry-age histogram"
    )
    cache_stats_cmd.add_argument(
        "--cache-dir", metavar="DIR", default=argparse.SUPPRESS,
        help="cache directory (default: $REPRO_CACHE_DIR)",
    )
    cache_stats_cmd.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (json is stable for scripting)",
    )
    cache_stats_cmd.set_defaults(handler=cmd_cache_stats)
    return parser


# ----------------------------------------------------------------------
# Handlers.
# ----------------------------------------------------------------------
def cmd_list(args) -> int:
    rows = []
    for spec in REGISTRY:
        if args.suite and spec.suite != args.suite:
            continue
        if args.responsive and not spec.responsive:
            continue
        rows.append(
            [spec.name, spec.suite, "yes" if spec.responsive else "",
             spec.description.split(";")[0][:60]]
        )
    print(render_table(["bench", "suite", "responsive", "description"], rows))
    return 0


def _render_policy_table(spec, scale, results) -> str:
    rows = []
    for name, result in results.items():
        stats = result.amnesic.stats
        rows.append(
            [name, result.edp_gain_percent, result.energy_gain_percent,
             result.time_gain_percent, stats.recomputations_fired,
             stats.recomputations_skipped, stats.recomputation_fallbacks]
        )
    return render_table(
        ["policy", "EDP gain %", "energy %", "time %", "fired", "skipped", "fallback"],
        rows, title=f"{spec.name} (scale {scale})",
    )


def cmd_run(args) -> int:
    spec = _lookup(args.benchmark)
    if spec is None:
        return 1
    policies = POLICY_NAMES if (args.all_policies or not args.policy) else (args.policy,)
    runner = SuiteRunner(
        model=paper_energy_model(), scale=args.scale, policies=policies,
        **_runner_options(args),
    )
    with _ledger_session(runner) as telemetry:
        started = time.perf_counter()
        results = runner.result(args.benchmark)
        _record_run(
            runner, "run", f"repro run {args.benchmark}", spec.name,
            telemetry, time.perf_counter() - started,
        )
    if args.format == "json":
        payload = {
            "benchmark": spec.name,
            "scale": args.scale,
            "policies": {
                name: {
                    "edp_gain_percent": result.edp_gain_percent,
                    "energy_gain_percent": result.energy_gain_percent,
                    "time_gain_percent": result.time_gain_percent,
                    "fired": result.amnesic.stats.recomputations_fired,
                    "skipped": result.amnesic.stats.recomputations_skipped,
                    "fallbacks": result.amnesic.stats.recomputation_fallbacks,
                }
                for name, result in results.items()
            },
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(_render_policy_table(spec, args.scale, results))
    return 0


def _stats_json_payload(spec, args, results, telemetry) -> dict:
    """The ``repro stats --format json`` document for a live run."""
    from .telemetry.summary import (
        cache_io_stats,
        cache_stats,
        hottest_spans,
        pool_stats,
        rcmp_breakdown,
    )
    from .telemetry.views import figure_observables

    events = getattr(telemetry.sink, "events", []) or []
    return {
        "benchmark": spec.name,
        "scale": args.scale,
        "policies": {
            name: {
                "edp_gain_percent": result.edp_gain_percent,
                "energy_gain_percent": result.energy_gain_percent,
                "time_gain_percent": result.time_gain_percent,
                "fired": result.amnesic.stats.recomputations_fired,
                "skipped": result.amnesic.stats.recomputations_skipped,
                "fallbacks": result.amnesic.stats.recomputation_fallbacks,
            }
            for name, result in results.items()
        },
        "hottest_spans": [
            {"name": name, "self_time_s": seconds, "count": count}
            for name, seconds, count in hottest_spans(
                telemetry.tracer.tree(), top=args.top
            )
        ],
        "rcmp": rcmp_breakdown(telemetry.registry),
        "caches": cache_stats(telemetry.registry),
        "cache_io": cache_io_stats(telemetry.registry),
        "pool": pool_stats(telemetry.registry),
        "figures": figure_observables(events, telemetry.timelines),
        "metrics": telemetry.registry.snapshot(),
    }


def _stats_from_trace(args) -> int:
    """Summarise a recorded JSONL trace without re-running anything."""
    from collections import defaultdict

    from .telemetry.sink import read_events, reconstruct_spans
    from .telemetry.summary import render_hottest_spans, render_span_tree
    from .telemetry.views import figure_observables

    path = args.from_trace
    try:
        events = read_events(path)
    except OSError as error:
        reason = error.strerror or str(error)
        print(f"error: cannot read trace {path}: {reason}", file=sys.stderr)
        return 1
    if not events:
        print(
            f"error: trace {path} contains no telemetry events "
            f"(empty or fully corrupt file)",
            file=sys.stderr,
        )
        return 1
    roots = reconstruct_spans(events)
    outcomes: dict = defaultdict(lambda: defaultdict(int))
    for event in events:
        if event.get("type") == "rcmp":
            outcomes[str(event.get("policy", "?"))][
                str(event.get("outcome", "?"))
            ] += 1
    if args.format == "json":
        payload = {
            "trace": path,
            "events": len(events),
            "skipped_lines": events.skipped_lines,
            "rcmp": {policy: dict(counts) for policy, counts in outcomes.items()},
            "figures": figure_observables(events),
            "spans": len(roots),
        }
        print(json.dumps(payload, indent=2))
        return 0
    if events.skipped_lines:
        print(
            f"warning: skipped {events.skipped_lines} undecodable line(s) "
            f"(truncated trace?)",
            file=sys.stderr,
        )
    print(f"trace {path}: {len(events)} events")
    print()
    print("== span tree ==")
    print(render_span_tree(roots))
    print()
    print("== hottest spans ==")
    print(render_hottest_spans(roots, top=args.top))
    if outcomes:
        print()
        print("== recomputation ==")
        for policy in sorted(outcomes):
            counts = outcomes[policy]
            detail = ", ".join(
                f"{outcome}={counts[outcome]}" for outcome in sorted(counts)
            )
            print(f"  {policy}: {detail}")
    return 0


def cmd_stats(args) -> int:
    """Evaluate one benchmark with telemetry on and print the summary."""
    if args.from_trace:
        return _stats_from_trace(args)
    if not args.benchmark:
        print(
            "error: a benchmark name (or --from-trace FILE) is required",
            file=sys.stderr,
        )
        return 2
    spec = _lookup(args.benchmark)
    if spec is None:
        return 1
    policies = (args.policy,) if args.policy else POLICY_NAMES
    runner = SuiteRunner(
        model=paper_energy_model(), scale=args.scale, policies=policies,
        **_runner_options(args),
    )

    def evaluate_and_summarise(telemetry) -> int:
        started = time.perf_counter()
        results = runner.result(args.benchmark)
        _record_run(
            runner, "stats", f"repro stats {args.benchmark}", spec.name,
            telemetry, time.perf_counter() - started,
        )
        if args.format == "json":
            print(
                json.dumps(
                    _stats_json_payload(spec, args, results, telemetry),
                    indent=2,
                )
            )
            return 0
        print(_render_policy_table(spec, args.scale, results))
        print()
        print(render_summary(telemetry, top=args.top))
        return 0

    ambient = get_telemetry()
    if ambient.enabled:  # --trace-out/--metrics already opened a session
        return evaluate_and_summarise(ambient)
    with telemetry_session(
        # The JSON document embeds the live figure observables, which
        # are derived from the per-RCMP events; the text summary only
        # needs spans and metrics, so it skips event collection.
        collect_events=args.format == "json",
        timeline_window=getattr(args, "timeline", None),
    ) as telemetry:
        return evaluate_and_summarise(telemetry)


def cmd_profile(args) -> int:
    """Profile the interpreter hot loop over a benchmark or experiment."""
    from .telemetry.profiler import (
        DEFAULT_SAMPLE_EVERY,
        HotLoopProfiler,
        reconcile,
        render_profile,
    )

    if args.exact and args.sample_every is not None:
        print("--exact and --sample-every are mutually exclusive", file=sys.stderr)
        return 2
    sample_every = 1 if args.exact else (args.sample_every or DEFAULT_SAMPLE_EVERY)

    is_experiment = args.target in EXPERIMENTS
    if not is_experiment:
        try:
            get(args.target)
        except KeyError:
            print(
                f"unknown profile target {args.target!r}: expected a "
                f"benchmark (see `repro list`) or an experiment id "
                f"({', '.join(sorted(EXPERIMENTS))})",
                file=sys.stderr,
            )
            return 2

    profiler = HotLoopProfiler(sample_every=sample_every)
    # Profiling measures *this* process's wall clock, so the run is
    # forced serial and uncached — a cache hit would profile nothing.
    # The backend still flows through: the fast backend hands profiled
    # runs to the classic instrumented loop (that's what the profiler
    # measures), so attribution stays meaningful either way.
    runner = SuiteRunner(
        scale=args.scale, jobs=1, cache_dir=None,
        backend=getattr(args, "backend", None),
    )
    with telemetry_session(profiler=profiler) as session:
        if is_experiment:
            run_experiment(args.target, runner)
        else:
            runner.result(args.target)
        snapshot = session.registry.snapshot()

    def total(prefix: str) -> float:
        return sum(
            value for key, value in snapshot.items()
            if key.startswith(prefix) and isinstance(value, (int, float))
        )

    reconciliation = reconcile(
        profiler,
        runstats_instructions=int(total("runstats.dynamic_instructions{")),
        accounts_energy_nj=total("run.energy_nj{"),
    )
    if args.format == "json":
        payload = profiler.to_json()
        payload["target"] = args.target
        payload["scale"] = args.scale
        payload["reconciliation"] = reconciliation
        print(json.dumps(payload, indent=2))
    else:
        print(f"profile target: {args.target} (scale {args.scale})")
        print(
            render_profile(
                profiler,
                top=args.top,
                fold_runs=args.fold_runs,
                reconciliation=reconciliation,
            )
        )
    return 0 if reconciliation["reconciled"] else 1


def cmd_trace_export(args) -> int:
    """Convert a recorded JSONL trace to Chrome trace_event JSON."""
    from .telemetry.export import (
        export_chrome_trace,
        trace_summary,
        validate_chrome_trace,
    )
    from .telemetry.sink import read_events

    try:
        events = read_events(args.trace)
    except OSError as error:
        reason = error.strerror or str(error)
        print(f"error: cannot read trace {args.trace}: {reason}", file=sys.stderr)
        return 1
    if not events:
        print(
            f"error: trace {args.trace} contains no telemetry events",
            file=sys.stderr,
        )
        return 1
    if events.skipped_lines:
        print(
            f"warning: skipped {events.skipped_lines} undecodable line(s)",
            file=sys.stderr,
        )
    trace = export_chrome_trace(events)
    problems = validate_chrome_trace(trace)
    if problems:
        for problem in problems[:10]:
            print(f"error: exported trace invalid: {problem}", file=sys.stderr)
        return 1
    out = args.out
    if out is None:
        stem = args.trace[:-6] if args.trace.endswith(".jsonl") else args.trace
        out = f"{stem}.trace.json"
    with open(out, "w", encoding="utf-8") as stream:
        json.dump(trace, stream, separators=(",", ":"))
    summary = trace_summary(trace)
    print(
        f"{out}: {summary['events']} trace events, "
        f"{summary['threads']} thread track(s), "
        f"{summary['counter_tracks']} counter track(s) "
        f"(open in ui.perfetto.dev)"
    )
    return 0


def cmd_trace_validate(args) -> int:
    """Structurally validate an exported trace_event JSON file."""
    from .telemetry.export import trace_summary, validate_chrome_trace

    try:
        with open(args.trace, "r", encoding="utf-8") as stream:
            trace = json.load(stream)
    except OSError as error:
        reason = error.strerror or str(error)
        print(f"error: cannot read {args.trace}: {reason}", file=sys.stderr)
        return 1
    except ValueError as error:
        print(f"error: {args.trace} is not valid JSON: {error}", file=sys.stderr)
        return 1
    problems = validate_chrome_trace(trace)
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        print(f"{args.trace}: INVALID ({len(problems)} problem(s))")
        return 1
    summary = trace_summary(trace)
    print(
        f"{args.trace}: ok — {summary['events']} events, "
        f"{summary['threads']} thread track(s), "
        f"{summary['counter_tracks']} counter track(s)"
    )
    return 0


def cmd_compile(args) -> int:
    spec = _lookup(args.benchmark)
    if spec is None:
        return 1
    program = spec.instantiate(args.scale)
    result = compile_amnesic(program, paper_energy_model())
    rows = [
        [rs.slice_id, rs.load_pc, rs.length, rs.height,
         f"{rs.traversal_cost.energy_nj:.2f}",
         f"{rs.estimated_load_cost.energy_nj:.2f}",
         "yes" if rs.has_nonrecomputable_inputs else "no"]
        for rs in result.rslices
    ]
    print(render_table(
        ["slice", "load pc", "len", "height", "E_rc nJ", "E_ld nJ", "w/ nc"],
        rows, title=f"{spec.name}: {len(result.rslices)} slices embedded",
    ))
    if result.rejected:
        print(f"\nrejected loads ({len(result.rejected)}):")
        for pc, reason in sorted(result.rejected.items()):
            print(f"  pc {pc}: {reason}")
    return 0


def cmd_disasm(args) -> int:
    spec = _lookup(args.benchmark)
    if spec is None:
        return 1
    program = spec.instantiate(args.scale)
    if args.amnesic:
        program = compile_amnesic(program, paper_energy_model()).binary.program
    text = program.render()
    lines = text.splitlines()
    if args.limit and len(lines) > args.limit:
        shown = lines[: args.limit]
        shown.append(f"  ... ({len(lines) - args.limit} more lines)")
        text = "\n".join(shown)
    print(text)
    return 0


def cmd_experiment(args) -> int:
    runner = SuiteRunner(scale=args.scale, **_runner_options(args))
    with _ledger_session(runner) as telemetry:
        started = time.perf_counter()
        report = run_experiment(args.experiment_id, runner)
        _record_run(
            runner, "experiment", f"repro experiment {args.experiment_id}",
            args.experiment_id, telemetry, time.perf_counter() - started,
        )
    if getattr(args, "format", "text") == "json":
        from .harness.experiments import report_payload

        print(json.dumps(report_payload(report), indent=2))
        return 0
    print(report.text)
    return 0


def cmd_bench(args) -> int:
    """The fidelity report: every scored value against the paper's."""
    from .bench.paper_reference import REFERENCES, SCORED_EXPERIMENTS, fidelity_metrics
    from .telemetry.ledger import fidelity_summary

    experiments = [
        part.strip() for part in (args.experiments or "").split(",")
        if part.strip()
    ] or list(SCORED_EXPERIMENTS)
    unscored = [e for e in experiments if e not in SCORED_EXPERIMENTS]
    if unscored:
        print(
            f"error: not fidelity-scored: {', '.join(unscored)} "
            f"(scored: {', '.join(SCORED_EXPERIMENTS)})",
            file=sys.stderr,
        )
        return 2
    runner = SuiteRunner(scale=args.scale, **_runner_options(args))
    metrics = []
    with _ledger_session(runner) as telemetry:
        started = time.perf_counter()
        for experiment_id in experiments:
            metrics.extend(
                fidelity_metrics(run_experiment(experiment_id, runner))
            )
        summary = fidelity_summary(metrics)
        _record_run(
            runner, "bench", "repro bench", ",".join(experiments), telemetry,
            time.perf_counter() - started, fidelity=summary,
        )
    if args.format == "json":
        print(json.dumps({
            "experiments": experiments,
            "metrics": [dataclasses.asdict(metric) for metric in metrics],
            "summary": summary,
        }, indent=2))
        return 0
    rows = [
        [metric.figure, metric.metric, metric.policy, metric.benchmark,
         f"{metric.paper:.2f}", f"{metric.measured:.2f}",
         f"{metric.abs_error:.2f}", f"{metric.tolerance_pp:g}",
         "yes" if metric.within else "NO"]
        for metric in metrics
    ]
    print(render_table(
        ["experiment", "metric", "policy", "bench", "paper", "measured",
         "abs err pp", "tolerance pp", "within"],
        rows, title="fidelity against the paper",
    ))
    # Bounds score 0 while their claim holds, so the point references
    # alone give the distance from the paper's numbers.
    points = [metric.abs_error for metric in metrics
              if metric.figure in REFERENCES]
    line = (
        f"\nscore {summary['score']:.3f} over {summary['metrics']} "
        f"metric(s), mean abs error {summary['mean_abs_error_pp']:.3f} pp"
    )
    if points:
        line += (
            f"; {len(points)} point reference(s): "
            f"mean abs error {sum(points) / len(points):.3f} pp"
        )
    print(line)
    return 0


def cmd_fuzz(args) -> int:
    """Run a differential fuzz campaign (or replay the corpus)."""
    from .core.backend import resolve_backend
    from .fuzz import FuzzConfig, materialize, replay_corpus, run_fuzz
    from .fuzz.runner import entry_satisfied

    backend = resolve_backend(args.backend)
    policies = None
    if args.policies:
        policies = tuple(
            part.strip() for part in args.policies.split(",") if part.strip()
        )
        unknown = [name for name in policies if name not in POLICY_NAMES]
        if unknown:
            print(
                f"unknown policies: {', '.join(unknown)} "
                f"(choose from {', '.join(POLICY_NAMES)})",
                file=sys.stderr,
            )
            return 2

    if args.replay:
        if not args.corpus_dir:
            print("--replay requires --corpus-dir", file=sys.stderr)
            return 2
        report = replay_corpus(
            args.corpus_dir, policies=policies, backend=backend
        )
        if args.format == "json":
            payload = {
                "entries": len(report.verdicts),
                "failures": [
                    {"name": entry.name, "verdict": verdict.summary()}
                    for entry, verdict in report.failures
                ],
            }
            print(json.dumps(payload, indent=2))
        else:
            for entry, verdict in report.verdicts:
                marker = "ok  " if entry_satisfied(entry, verdict) else "FAIL"
                print(f"{marker} {entry.name}: {verdict.summary()}")
            print(
                f"\nreplayed {len(report.verdicts)} corpus entries, "
                f"{len(report.failures)} failing"
            )
        return 0 if report.ok else 1

    config = FuzzConfig(
        seed=args.seed,
        iterations=args.iterations,
        time_budget_s=args.time_budget,
        corpus_dir=args.corpus_dir,
        policies=policies or POLICY_NAMES,
        shrink=not args.no_shrink,
        max_counterexamples=args.max_counterexamples,
        backend=backend,
    )
    result = run_fuzz(config)
    if args.format == "json":
        print(json.dumps(result.to_json(), indent=2))
    else:
        print(
            f"fuzz: seed {config.seed}, {result.programs} programs checked "
            f"({result.invalid} invalid) in {result.elapsed_s:.1f}s "
            f"across {', '.join(config.policies)}"
        )
        if result.stopped_early:
            print(f"stopped early: {result.stopped_early}")
        for cx in result.counterexamples:
            program = materialize(cx.shrunk)
            print(
                f"\ncounterexample (program seed {cx.original.seed}, shrunk "
                f"in {cx.shrink_steps} steps to "
                f"{len(program.instructions)} instructions):"
            )
            for failure in cx.verdict.failures:
                print(f"  {failure}")
            if cx.corpus_path:
                print(f"  banked at {cx.corpus_path}")
            print(program.render())
        if result.ok:
            print("no equivalence violations found")
    return 0 if result.ok else 1


def cmd_lint(args) -> int:
    """Static slice-safety verification; exit 1 on any ERROR finding."""
    from .staticcheck.diagnostics import Severity
    from .staticcheck.lint import LintSettings, run_lint

    benchmarks = None
    if args.benchmarks:
        benchmarks = [
            part.strip() for part in args.benchmarks.split(",") if part.strip()
        ]
    corpus_dir: Optional[str] = args.corpus_dir
    if args.no_corpus or args.self_only:
        corpus_dir = None
    elif corpus_dir is not None and not os.path.isdir(corpus_dir):
        print(f"error: corpus directory {corpus_dir} not found",
              file=sys.stderr)
        return 2
    settings = LintSettings(
        benchmarks=benchmarks,
        include_kernels=not (args.no_kernels or args.self_only),
        corpus_dir=corpus_dir,
        scale=args.scale,
        cross_check=args.cross_check,
        prove_rules=args.prove_rules and corpus_dir is not None,
        self_check=True,
        regions_out=args.regions_out,
        backend=args.backend,
    )
    text = args.format == "text"
    try:
        run = run_lint(settings, progress=print if text else None)
    except KeyError as error:
        print(f"error: unknown benchmark(s): {error.args[0]}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps(run.to_json(), indent=2))
        return 0 if run.ok else 1

    shown = False
    for report in run.reports:
        interesting = [
            finding for finding in report.findings
            if finding.effective_severity is not Severity.INFO
        ]
        if not interesting:
            continue
        shown = True
        print()
        limit = args.max_findings
        for finding in interesting[: limit or len(interesting)]:
            print(f"  {finding}")
        if limit and len(interesting) > limit:
            print(f"  ... ({len(interesting) - limit} more)")
    missed = [outcome for outcome in run.prove if not outcome.ok]
    for outcome in missed:
        print(
            f"\nbroken pass {outcome.name} was NOT flagged with "
            f"{outcome.expected_rule} ({outcome.attempted} program(s) tried)"
        )
    if shown or missed:
        print()
    print(
        f"lint: {len(run.results)} program(s), {run.error_count} error(s), "
        f"{run.warning_count} warning(s)"
        + (f", {len(run.prove)} broken pass(es) proven" if run.prove and not missed else "")
    )
    return 0 if run.ok else 1


def cmd_report(args) -> int:
    from .harness.report import write_report

    runner = SuiteRunner(scale=args.scale, **_runner_options(args))
    path = write_report(runner, args.out, experiments=args.experiments)
    print(f"report written to {path}")
    return 0


def cmd_experiments(args) -> int:
    for experiment_id, fn in EXPERIMENTS.items():
        doc = (fn.__doc__ or "").strip().splitlines()[0]
        print(f"{experiment_id:8s} {doc}")
    return 0


# ----------------------------------------------------------------------
# Run-ledger commands.
# ----------------------------------------------------------------------
def _require_ledger(args):
    """The ledger from ``--ledger-dir``/env, or ``None`` (with an error)."""
    from .telemetry.ledger import ledger_from_env

    ledger = ledger_from_env(getattr(args, "ledger_dir", None))
    if ledger is None:
        print(
            "error: no run ledger configured "
            "(pass --ledger-dir DIR or set $REPRO_LEDGER_DIR)",
            file=sys.stderr,
        )
    return ledger


def _warn_skipped(result) -> None:
    if result.skipped_lines:
        print(
            f"warning: skipped {result.skipped_lines} undecodable ledger "
            f"line(s) (writer killed mid-append?)",
            file=sys.stderr,
        )


def cmd_runs_list(args) -> int:
    """Filterable table of every recorded run, most recent last."""
    ledger = _require_ledger(args)
    if ledger is None:
        return 2
    result = ledger.select(
        kind=args.kind, target=args.target, backend=args.backend
    )
    _warn_skipped(result)
    manifests = list(result)
    if args.limit and args.limit > 0:
        manifests = manifests[-args.limit:]
    if args.format == "json":
        print(json.dumps([m.to_json() for m in manifests], indent=2))
        return 0
    if not manifests:
        print(f"(no matching runs in {ledger.path})")
        return 0
    rows = []
    for manifest in manifests:
        fidelity = (
            "-" if not manifest.fidelity
            else f"{manifest.fidelity.get('score', 0):.2f}"
        )
        rows.append([
            manifest.run_id, manifest.kind, manifest.target,
            manifest.backend, f"{manifest.scale:g}",
            f"{manifest.wall_s:.2f}", f"{manifest.ips:,.0f}", fidelity,
        ])
    print(render_table(
        ["run id", "kind", "target", "backend", "scale", "wall s", "ips",
         "fidelity"],
        rows,
        title=f"{len(manifests)} of {len(result)} run(s) in {ledger.path}",
    ))
    return 0


def cmd_runs_show(args) -> int:
    """Every recorded field of one run (prefix lookup allowed)."""
    ledger = _require_ledger(args)
    if ledger is None:
        return 2
    from .telemetry.ledger import render_manifest

    try:
        manifest = ledger.get(args.run_id)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(manifest.to_json(), indent=2))
        return 0
    print(render_manifest(manifest))
    return 0


def cmd_runs_diff(args) -> int:
    """Per-field deltas between two recorded runs."""
    ledger = _require_ledger(args)
    if ledger is None:
        return 2
    from .telemetry.ledger import diff_manifests, render_manifest_diff

    try:
        manifest_a = ledger.get(args.run_a)
        manifest_b = ledger.get(args.run_b)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 1
    diff = diff_manifests(manifest_a, manifest_b)
    if args.format == "json":
        print(json.dumps(diff, indent=2))
        return 0
    print(render_manifest_diff(diff))
    return 0


def cmd_cache_stats(args) -> int:
    """Operational snapshot of the persistent result cache."""
    from .harness.cache import cache_from_env

    cache = cache_from_env(getattr(args, "cache_dir", None))
    if cache is None:
        print(
            "error: no result cache configured "
            "(pass --cache-dir DIR or set $REPRO_CACHE_DIR)",
            file=sys.stderr,
        )
        return 2
    stats = cache.stats()
    if args.format == "json":
        print(json.dumps(stats, indent=2))
        return 0
    print(f"result cache {stats['directory']}:")
    print(f"  entries      {stats['entries']}")
    print(f"  total bytes  {stats['total_bytes']:,}")
    if stats["entries"]:
        print(f"  newest age   {stats['newest_age_s']:.0f}s")
        print(f"  oldest age   {stats['oldest_age_s']:.0f}s")
        print("  age histogram:")
        for label, count in stats["age_histogram"].items():
            print(f"    {label:<6} {count}")
    return 0


def _lookup(name: str):
    try:
        return get(name)
    except KeyError as error:
        print(error, file=sys.stderr)
        return None


if __name__ == "__main__":
    sys.exit(main())
