"""Parallel evaluation engine: fan work units over a process pool.

A full-suite evaluation is embarrassingly parallel — 33 independent
``(benchmark, scale, policies)`` combinations — but each evaluation is
interpreter-bound, so threads cannot help.  This module ships the work
to a :class:`concurrent.futures.ProcessPoolExecutor` instead:

* a :class:`WorkUnit` is a picklable descriptor of one evaluation
  (benchmark name, scale, policy tuple, energy model, instruction
  budget).  Workers re-instantiate the benchmark from the registry, so
  only small descriptors cross the process boundary on the way in;
* :func:`evaluate_unit` runs one unit under a private telemetry session
  and returns a :class:`ResultEnvelope` carrying the per-policy
  comparisons *plus* the worker's metrics-registry dump and structured
  events (spans, per-RCMP decision records);
* :func:`evaluate_many` preserves submission order — results come back
  deterministically no matter which worker finished first — and falls
  back to in-process execution for ``jobs=1`` or a single unit.  Each
  unit is submitted as its own future, so one worker dying mid-batch
  (OOM kill, segfault) costs only that unit: the survivors' telemetry
  is merged exactly once and the failure is raised as a
  :class:`ParallelEvaluationError` naming the lost benchmarks;
* :func:`merge_envelope` folds a worker's telemetry back into the
  parent session (counters add, histograms extend, gauges last-write,
  events re-emitted to the parent sink), so ``repro stats`` and
  ``--trace-out`` report a complete picture across workers.  Worker
  events are tagged with the worker's pid, span ids are remapped into
  the parent tracer's id space, and worker root spans are re-parented
  under the parent's open span — a merged trace reconstructs as one
  tree with cross-process nesting intact, and each worker's
  ``clock_sync`` event lets :mod:`repro.telemetry.export` align every
  process onto one timeline.

Within one unit the compile-once/run-many structure of
:func:`repro.core.execution.evaluate_policies` is preserved: the worker
profiles and compiles once and measures every policy against the same
classic baseline.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.execution import PolicyComparison, evaluate_policies
from ..core.policies import POLICY_NAMES
from ..energy.model import EnergyModel
from ..machine.cpu import DEFAULT_MAX_INSTRUCTIONS
from ..telemetry.runtime import (
    Telemetry,
    get_telemetry,
    set_telemetry,
    telemetry_session,
)
from ..telemetry.sink import ListSink
from ..telemetry.spans import Span
from ..workloads.base import SCALE_SMALL
from ..workloads.suite import get


@dataclasses.dataclass(frozen=True)
class WorkUnit:
    """One evaluation to run: everything a worker needs, by value.

    ``capture_metrics``/``capture_events`` control how much telemetry
    the worker records for the parent-side merge.  Callers mirror the
    parent session here (metrics when telemetry is enabled, events only
    when a sink is attached): per-RCMP decision events are the dominant
    capture cost, and recording them for a parent that would drop them
    would erase most of the parallel speed-up.
    """

    benchmark: str
    scale: float = SCALE_SMALL
    policies: Tuple[str, ...] = POLICY_NAMES
    model: Optional[EnergyModel] = None
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS
    #: Execution backend name; None resolves from the worker's env.
    backend: Optional[str] = None
    capture_metrics: bool = True
    capture_events: bool = True
    #: Mirror of the parent session's timeline window: workers sample
    #: their own runs and the timeline events merge back with the rest.
    timeline_window: Optional[int] = None
    #: Wall-clock submission stamp (set by :func:`evaluate_many`); the
    #: worker subtracts it from its own start to measure queue wait.
    #: Wall clocks are shared across processes, so no sync is needed.
    submitted_wall: Optional[float] = None

    @classmethod
    def mirroring(
        cls, telemetry: Optional[Telemetry] = None, **fields
    ) -> "WorkUnit":
        """A unit whose capture settings mirror the given session."""
        telemetry = telemetry or get_telemetry()
        capture_events = telemetry.enabled and telemetry.sink is not None
        return cls(
            capture_metrics=telemetry.enabled,
            capture_events=capture_events,
            timeline_window=(
                telemetry.timeline_window if capture_events else None
            ),
            **fields,
        )


@dataclasses.dataclass
class ResultEnvelope:
    """One finished unit: results plus the worker's telemetry capture."""

    benchmark: str
    scale: float
    comparisons: Dict[str, PolicyComparison]
    #: The worker registry's :meth:`~MetricsRegistry.dump` (counters,
    #: gauges, histogram observations) for the parent-side merge.
    metrics: List[dict] = dataclasses.field(default_factory=list)
    #: Structured events (span open/close, RCMP decisions) in emit order.
    events: List[dict] = dataclasses.field(default_factory=list)
    #: The worker's completed spans, captured with or without a sink:
    #: the parent's span tree (ledger phases, ``repro stats``) needs them.
    spans: List[Span] = dataclasses.field(default_factory=list)
    #: Pid of the process that evaluated the unit; the merge tags the
    #: re-emitted events with it so traces attribute work per worker.
    worker_pid: Optional[int] = None
    #: Worker-side busy time spent on this unit (seconds).
    elapsed_s: float = 0.0
    #: Time the unit sat in the pool queue before a worker picked it up
    #: (seconds); 0.0 when the submission stamp is unknown.
    queue_wait_s: float = 0.0


def _evaluate(unit: WorkUnit) -> Dict[str, PolicyComparison]:
    program = get(unit.benchmark).instantiate(unit.scale)
    return evaluate_policies(
        program,
        policies=unit.policies,
        model=unit.model,
        max_instructions=unit.max_instructions,
        backend=unit.backend,
    )


def evaluate_unit(unit: WorkUnit) -> ResultEnvelope:
    """Evaluate one unit under an isolated telemetry session.

    Runs in a worker process (top-level so it pickles), but is equally
    valid in-process — :func:`evaluate_many` uses it for the serial
    fallback, which keeps jobs=1 and jobs=N behaviourally identical.
    """
    started_wall = time.time()
    queue_wait_s = (
        max(0.0, started_wall - unit.submitted_wall)
        if unit.submitted_wall is not None else 0.0
    )
    if not unit.capture_metrics:
        # Nothing to merge back: run with telemetry hard-off.  A fresh
        # disabled facade also shields a forked worker from any sink
        # (open file) inherited from the parent session.
        previous = set_telemetry(Telemetry(enabled=False))
        started = time.perf_counter()
        try:
            comparisons = _evaluate(unit)
        finally:
            elapsed_s = time.perf_counter() - started
            set_telemetry(previous)
        return ResultEnvelope(
            benchmark=unit.benchmark, scale=unit.scale,
            comparisons=comparisons, worker_pid=os.getpid(),
            elapsed_s=elapsed_s, queue_wait_s=queue_wait_s,
        )

    sink = ListSink() if unit.capture_events else None
    with telemetry_session(
        sink=sink,
        timeline_window=unit.timeline_window if unit.capture_events else None,
    ) as telemetry:
        started = time.perf_counter()
        with telemetry.span(
            "suite.benchmark", benchmark=unit.benchmark, scale=unit.scale
        ):
            comparisons = _evaluate(unit)
        elapsed_s = time.perf_counter() - started
        metrics = telemetry.registry.dump()
    return ResultEnvelope(
        benchmark=unit.benchmark,
        scale=unit.scale,
        comparisons=comparisons,
        metrics=metrics,
        events=sink.events if sink is not None else [],
        spans=telemetry.tracer.completed,
        worker_pid=os.getpid(),
        elapsed_s=elapsed_s,
        queue_wait_s=queue_wait_s,
    )


def merge_envelope(
    envelope: ResultEnvelope, telemetry: Optional[Telemetry] = None
) -> None:
    """Fold a worker's telemetry into the (enabled) parent session.

    Besides the metric fold, the worker's completed spans join the
    parent tracer's, and the event re-emission rewrites span identity
    the same way, so the merged tree and trace read as one session:

    * every event gains a ``worker`` field (the worker pid);
    * span ids are remapped to fresh ids from the parent tracer, so two
      workers' span 0 never collide;
    * worker *root* spans are re-parented under the span open in the
      parent at merge time (``suite.parallel``), preserving cross
      process parent/child nesting in the reconstructed tree.
    """
    telemetry = telemetry or get_telemetry()
    if not telemetry.enabled:
        return
    telemetry.registry.merge_dump(envelope.metrics)
    anchor = telemetry.tracer.current()
    anchor_id = None if anchor is None else anchor.span_id
    remap: Dict[int, int] = {}

    def remapped(span_id) -> int:
        span_id = int(span_id)
        if span_id not in remap:
            remap[span_id] = telemetry.tracer.allocate_id()
        return remap[span_id]

    for span in envelope.spans:
        telemetry.tracer.completed.append(
            dataclasses.replace(
                span,
                span_id=remapped(span.span_id),
                parent_id=(
                    anchor_id if span.parent_id is None else remapped(span.parent_id)
                ),
            )
        )
    if telemetry.sink is None:
        return
    for event in envelope.events:
        event = dict(event)
        if envelope.worker_pid is not None and "worker" not in event:
            event["worker"] = envelope.worker_pid
        kind = event.get("type")
        if kind in ("span_open", "span_close") and "span" in event:
            event["span"] = remapped(event["span"])
            if kind == "span_open":
                parent = event.get("parent")
                event["parent"] = (
                    anchor_id if parent is None else remapped(parent)
                )
        telemetry.sink.emit(event)


def publish_pool_metrics(
    envelopes: Sequence[Optional[ResultEnvelope]],
    workers: int,
    telemetry: Optional[Telemetry] = None,
) -> None:
    """Fold a batch's utilisation into the parent registry and sink.

    Histograms and gauges only — never counters — so the serial and
    parallel paths keep producing identical merged *counter* totals
    (worker pids differ between the two, and the equivalence contract
    tests compare counters).  Per batch this records:

    * ``pool.unit_s`` / ``pool.queue_wait_s`` histograms (one
      observation per unit);
    * ``pool.busy_s{worker=pid}`` histograms — summing a worker's
      observations gives its busy time, and comparing workers exposes
      load imbalance;
    * ``pool.workers`` / ``pool.straggler_max_s`` /
      ``pool.straggler_median_s`` / ``pool.straggler_ratio`` gauges —
      the straggler ratio (max unit time over median unit time) is the
      one-number answer to "did one benchmark serialise the batch?";
    * one ``pool`` event per unit, which the Perfetto exporter turns
      into ``pool unit_s`` / ``pool queue_wait_s`` counter tracks.
    """
    telemetry = telemetry or get_telemetry()
    if not telemetry.enabled:
        return
    finished = [env for env in envelopes if env is not None]
    if not finished:
        return
    unit_times = []
    for envelope in finished:
        unit_times.append(envelope.elapsed_s)
        telemetry.histogram("pool.unit_s").observe(envelope.elapsed_s)
        telemetry.histogram("pool.queue_wait_s").observe(envelope.queue_wait_s)
        if envelope.worker_pid is not None:
            telemetry.histogram(
                "pool.busy_s", worker=envelope.worker_pid
            ).observe(envelope.elapsed_s)
        telemetry.event(
            "pool",
            t=time.perf_counter(),
            benchmark=envelope.benchmark,
            worker_pid=envelope.worker_pid,
            unit_s=envelope.elapsed_s,
            queue_wait_s=envelope.queue_wait_s,
        )
    median_s = statistics.median(unit_times)
    max_s = max(unit_times)
    telemetry.gauge("pool.workers").set(workers)
    telemetry.gauge("pool.straggler_max_s").set(max_s)
    telemetry.gauge("pool.straggler_median_s").set(median_s)
    telemetry.gauge("pool.straggler_ratio").set(
        max_s / median_s if median_s > 0 else 0.0
    )


class ParallelEvaluationError(RuntimeError):
    """One or more workers died mid-batch.

    Raised *after* the surviving envelopes' telemetry has been merged
    (exactly once), so a partial batch still reports everything it
    measured.  ``failures`` maps benchmark name to the error string;
    ``envelopes`` holds the surviving results in submission order.
    """

    def __init__(self, failures, envelopes):
        self.failures = list(failures)
        self.envelopes = list(envelopes)
        names = ", ".join(name for name, _ in self.failures)
        super().__init__(
            f"{len(self.failures)} evaluation(s) failed in worker "
            f"processes: {names}"
        )


def default_jobs() -> int:
    """Worker count from ``$REPRO_JOBS`` (1 = serial, the default)."""
    raw = os.environ.get("REPRO_JOBS", "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(
            f"REPRO_JOBS must be a positive integer, got {raw!r}"
        ) from None


def evaluate_many(
    units: Sequence[WorkUnit],
    jobs: int = 1,
) -> List[ResultEnvelope]:
    """Evaluate *units*, fanning out over *jobs* worker processes.

    The returned list is index-aligned with *units* regardless of
    completion order.  With ``jobs <= 1`` (or a single unit) everything
    runs in-process; telemetry is still captured per unit and merged,
    so the two paths produce identical counter totals.
    """
    units = list(units)
    telemetry = get_telemetry()
    workers = min(max(1, jobs), len(units)) if units else 1
    failures: List[Tuple[str, BaseException]] = []
    with telemetry.span("suite.parallel", units=len(units), jobs=workers):
        if workers <= 1:
            envelopes = [
                evaluate_unit(
                    dataclasses.replace(unit, submitted_wall=time.time())
                )
                for unit in units
            ]
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                # One future per unit (not Executor.map): a worker that
                # dies poisons only its own future, and iterating in
                # submission order keeps results deterministic.
                futures = [
                    pool.submit(
                        evaluate_unit,
                        dataclasses.replace(unit, submitted_wall=time.time()),
                    )
                    for unit in units
                ]
                envelopes = []
                for unit, future in zip(units, futures):
                    try:
                        envelopes.append(future.result())
                    except Exception as error:
                        envelopes.append(None)
                        failures.append((unit.benchmark, error))
        # Merge inside the suite.parallel span so worker root spans are
        # re-parented under it (the cross-process nesting anchor).
        for envelope in envelopes:
            if envelope is not None:
                merge_envelope(envelope, telemetry)
        publish_pool_metrics(envelopes, workers, telemetry)
    if failures:
        raise ParallelEvaluationError(
            [(name, str(error)) for name, error in failures],
            [envelope for envelope in envelopes if envelope is not None],
        )
    return envelopes
