"""One workload in a fresh process: set up, run the timed rounds, report.

Started by ``run.py`` (never by hand) as::

    python perfbench/child.py --workload W --seed N --seconds S
        [--trace-out PATH] [--setup-only]

and prints one JSON object on its last stdout line.  Set-up time runs
from process start, so nothing from ``repro`` is imported at module
level; with ``--trace-out`` the per-layer wrappers go in before set-up
and come out after the timed phase.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time


def read_steal():
    """(steal ticks, all ticks) from /proc/stat, or None off Linux."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(v) for v in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def reference_work(n: int = 2000) -> int:
    """A fixed piece of interpreter work that never calls the program.

    On a shared VM the CPU time of the same work swings by up to 1.9x
    within tens of seconds as neighbours load the host.  Timing this
    loop just before and after every unit measures the host's speed at
    that moment, in the same process, and each unit's CPU time is scaled
    by it (see ``metrics.REFERENCE_S``).
    """
    table = {}
    cells = []
    acc = 0
    for i in range(n):
        key = (i * 7919) & 127
        cell = _Cell(key, i)
        cells.append(cell)
        table[key] = table.get(key, 0) + cell.value
        acc = (acc * 31 + cell.key) & 0xFFFFFFFF
    cells.sort(key=lambda c: c.key)
    return acc + len(cells) + sum(table.values())


def reference_sample() -> float:
    """Median CPU seconds of three ``reference_work`` calls.

    The median keeps one interrupted call from moving the sample.  The
    collector is off so that the sample does not pay for scanning the
    workload's heap, which would tie it to the program's state.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            start = time.process_time()
            reference_work()
            times.append(time.process_time() - start)
        return sorted(times)[1]
    finally:
        if enabled:
            gc.enable()


def digest(payload) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    start = time.process_time()
    setup_ref_cpu_s = [reference_sample() for _ in range(3)]
    sampling_s = time.process_time() - start

    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    tracer = None
    if args.trace_out:
        import layers

        recorder = layers.Recorder()
        tracer = layers.Tracer(recorder).install()
    workload.setup(args.seed)
    gc.collect()
    # Set-up time excludes the reference samples taken around it.
    setup_s = time.process_time() - sampling_s
    setup_ref_cpu_s += [reference_sample() for _ in range(3)]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref_cpu_s": setup_ref_cpu_s}))
        return 0

    if tracer is not None:
        recorder.phase = "timed"
    rounds = max(1, round(args.seconds / workload.nominal_round_s))
    unit_cpu_s, round_cpu_s, problems, digests = [], [], [], []
    attempted = failed = 0
    steal_before = read_steal()
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    # One reference sample before each unit and one after the last.
    ref_cpu_s = []
    for round_index in range(rounds):
        for unit in workload.round_units(args.seed, round_index):
            ref_cpu_s.append(reference_sample())
            start = time.process_time()
            try:
                output = workload.run_unit(unit)
                error = None
            except Exception as caught:  # a unit that raises has failed
                output, error = None, f"{type(caught).__name__}: {caught}"
            unit_cpu_s.append(time.process_time() - start)
            attempted += 1
            problem = error or workload.check_unit(unit, output)
            if problem:
                failed += 1
                problems.append(f"{unit}: {problem}")
            else:
                digests.append([str(unit), digest(workload.digest_unit(unit, output))])
            del output
        start = time.process_time()
        output = workload.end_round()
        round_cpu_s.append(time.process_time() - start)
        for item, problem in workload.check_round(output):
            attempted += 1
            if problem:
                failed += 1
                problems.append(f"{item}: {problem}")
        del output
    ref_cpu_s.append(reference_sample())
    cpu_s = time.process_time() - cpu_start
    wall_s = time.perf_counter() - wall_start
    steal_after = read_steal()
    steal_frac = 0.0
    if steal_before and steal_after and steal_after[1] > steal_before[1]:
        steal_frac = (steal_after[0] - steal_before[0]) / (steal_after[1] - steal_before[1])

    timed_cpu_s = sum(unit_cpu_s) + sum(round_cpu_s)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "setup_s": setup_s,
        "setup_ref_cpu_s": setup_ref_cpu_s,
        "unit_cpu_s": unit_cpu_s,
        "ref_cpu_s": ref_cpu_s,
        "timed_cpu_s": timed_cpu_s,
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "steal_frac": steal_frac,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "digests": digests,
        "extra": workload.extra(),
    }
    if tracer is not None:
        tracer.uninstall()
        from repro.telemetry.export import validate_chrome_trace

        per_layer = layers.per_layer_metrics(recorder, timed_cpu_s)
        trace = layers.chrome_trace(recorder, f"perfbench {args.workload} seed {args.seed}")
        report["per_layer"] = {name: value for name, (value, _) in per_layer.items()}
        report["trace_problems"] = validate_chrome_trace(trace)[:20]
        with open(args.trace_out, "w") as out:
            json.dump(trace, out)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
