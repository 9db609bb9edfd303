"""Persistent run ledger: an append-only manifest store across runs.

Every in-run observability layer (spans, timelines, the profiler)
forgets everything at process exit.  The ledger is the cross-run
memory: each retired run, experiment, or benchmarking pass appends one
schema-versioned :class:`RunManifest` — what was run (command, target,
scale, backend, policies, model fingerprint, seed), under what
environment (git revision, python, platform), and what it cost (wall
time per phase, instructions/sec, energy, fidelity, cache and pool
traffic).  A warm ledger turns thousands of runs into a queryable
trajectory that ``repro runs list/show/diff`` browse; it is the
project's only run history.

Storage is one JSONL file (``ledger.jsonl``) inside the ledger
directory.  Appends are a *single* ``os.write`` on an ``O_APPEND``
descriptor, so concurrent writers — parallel CI jobs, forked workers —
interleave whole lines, never fragments, without any locking or temp
files.  Reads mirror :func:`repro.telemetry.sink.read_events`: a torn
final line (a writer killed mid-append) is skipped and counted, never
raised.

The ledger is opt-in: with no ``--ledger-dir`` / ``$REPRO_LEDGER_DIR``
configured nothing is written and nothing is paid.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import platform
import subprocess
import time
import uuid
from typing import Dict, List, Optional, Sequence

#: Bump on any change to the manifest field layout or semantics.
LEDGER_SCHEMA_VERSION = 1

#: The single JSONL file inside a ledger directory.
LEDGER_FILENAME = "ledger.jsonl"

#: ``$REPRO_LEDGER_DIR`` enables the ledger without a CLI flag.
LEDGER_ENV_VAR = "REPRO_LEDGER_DIR"


# ----------------------------------------------------------------------
# Provenance: what produced a manifest.
# ----------------------------------------------------------------------
def git_revision() -> Optional[str]:
    """The checked-out commit, or ``None`` outside a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=pathlib.Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def provenance() -> Dict[str, object]:
    """Interpreter/platform/source identity shared by every manifest."""
    return {
        "git_sha": git_revision(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def new_run_id() -> str:
    """A unique, roughly time-sortable run identifier.

    ``<utc stamp>-<pid>-<random>``: the stamp keeps ``runs list`` output
    readable, the pid disambiguates simultaneous writers, and the random
    suffix makes collisions impossible even within one process-second.
    """
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    return f"{stamp}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


# ----------------------------------------------------------------------
# The manifest.
# ----------------------------------------------------------------------
@dataclasses.dataclass
class RunManifest:
    """One retired run, by value: identity, configuration, and cost."""

    schema_version: int
    run_id: str
    created: str
    created_unix: float
    #: What kind of entry point retired: ``run`` / ``experiment`` /
    #: ``bench`` (new kinds are data, not schema).
    kind: str
    #: The rendered command (``repro run mcf``), for humans.
    command: str
    #: Benchmark name, experiment id, or comma-joined bench selection.
    target: str
    scale: float
    backend: str
    policies: List[str]
    model_fingerprint: Optional[str] = None
    seed: Optional[int] = None
    # Environment provenance.
    git_sha: Optional[str] = None
    python: Optional[str] = None
    platform: Optional[str] = None
    # Cost and outcome.
    wall_s: float = 0.0
    #: ``{span name: self seconds}`` from the session's phase totals.
    phases: Dict[str, float] = dataclasses.field(default_factory=dict)
    instructions: int = 0
    ips: float = 0.0
    energy_nj: float = 0.0
    #: ``{"score": within-fraction, "metrics": n, "mean_abs_error_pp": x}``
    #: for fidelity-scored runs (bench), else ``None``.
    fidelity: Optional[Dict[str, float]] = None
    #: ``{layer: {result: count}}`` — memory/disk result-cache lookups.
    cache: Dict[str, Dict[str, int]] = dataclasses.field(default_factory=dict)
    #: Disk-cache I/O counters (hits/misses/corrupt_misses/bytes_written).
    cache_io: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Pool utilisation (workers, busy seconds, queue wait, stragglers).
    pool: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Forward-compatibility bucket: fields this build does not know.
    extra: Dict[str, object] = dataclasses.field(default_factory=dict)

    def to_json(self) -> dict:
        payload = dataclasses.asdict(self)
        extra = payload.pop("extra")
        payload.update(extra)
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "RunManifest":
        """Rebuild a manifest, parking unknown fields in ``extra``.

        A newer build's extra fields survive a round trip through an
        older reader — the ledger is shared by many source revisions,
        so readers must never drop what they do not understand.
        """
        known = {field.name for field in dataclasses.fields(cls)} - {"extra"}
        fields = {key: value for key, value in payload.items() if key in known}
        extra = {
            key: value for key, value in payload.items() if key not in known
        }
        fields.setdefault("schema_version", LEDGER_SCHEMA_VERSION)
        return cls(extra=extra, **fields)

    @classmethod
    def new(cls, kind: str, command: str, target: str, **fields) -> "RunManifest":
        """A manifest stamped with fresh identity and provenance."""
        source = provenance()
        fields.setdefault("git_sha", source["git_sha"])
        fields.setdefault("python", source["python"])
        fields.setdefault("platform", source["platform"])
        fields.setdefault("scale", 1.0)
        fields.setdefault("backend", "classic")
        fields.setdefault("policies", [])
        return cls(
            schema_version=LEDGER_SCHEMA_VERSION,
            run_id=new_run_id(),
            created=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            created_unix=time.time(),
            kind=kind,
            command=command,
            target=target,
            **fields,
        )


class LedgerReadResult(List[RunManifest]):
    """Parsed manifests plus how many undecodable lines were skipped."""

    def __init__(self, manifests=(), skipped_lines: int = 0):
        super().__init__(manifests)
        self.skipped_lines = skipped_lines


class AmbiguousRunId(KeyError):
    """A run-id prefix matched more than one manifest."""


class UnknownRunId(KeyError):
    """A run-id (or prefix) matched no manifest."""


class RunLedger:
    """Append-only manifest store under one directory.

    All methods are safe under concurrent writers: appends are atomic
    whole-line writes (``O_APPEND`` + a single ``os.write``), and reads
    tolerate a torn trailing line from a writer killed mid-append.
    """

    def __init__(self, directory: os.PathLike | str):
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / LEDGER_FILENAME

    # ------------------------------------------------------------------
    # Writing.
    # ------------------------------------------------------------------
    def append(self, manifest: RunManifest) -> RunManifest:
        """Durably append one manifest; returns it for chaining.

        The whole line is handed to the kernel in one ``write`` on an
        ``O_APPEND`` descriptor, so concurrent appenders (forked
        workers, overlapping CI jobs) can interleave manifests but
        never characters.
        """
        line = json.dumps(
            manifest.to_json(), sort_keys=True, separators=(",", ":")
        )
        data = (line + "\n").encode("utf-8")
        fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, data)
        finally:
            os.close(fd)
        return manifest

    # ------------------------------------------------------------------
    # Reading.
    # ------------------------------------------------------------------
    def read(self) -> LedgerReadResult:
        """Every manifest in append order; torn lines are counted, not raised."""
        manifests: List[RunManifest] = []
        skipped = 0
        try:
            # The handle is owned by the `with` below; the try only
            # brackets the open itself.
            stream = open(self.path, "r", encoding="utf-8")  # noqa: SIM115
        except FileNotFoundError:
            return LedgerReadResult()
        with stream:
            for line in stream:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except ValueError:
                    skipped += 1
                    continue
                if not isinstance(payload, dict) or "run_id" not in payload:
                    skipped += 1
                    continue
                manifests.append(RunManifest.from_json(payload))
        return LedgerReadResult(manifests, skipped_lines=skipped)

    def select(
        self,
        kind: Optional[str] = None,
        target: Optional[str] = None,
        backend: Optional[str] = None,
    ) -> LedgerReadResult:
        """Manifests filtered by kind/target/backend, append order kept."""
        result = self.read()
        picked = [
            manifest for manifest in result
            if (kind is None or manifest.kind == kind)
            and (target is None or manifest.target == target)
            and (backend is None or manifest.backend == backend)
        ]
        return LedgerReadResult(picked, skipped_lines=result.skipped_lines)

    def get(self, run_id: str) -> RunManifest:
        """The manifest whose run id matches *run_id* (prefixes allowed)."""
        matches = [
            manifest for manifest in self.read()
            if manifest.run_id == run_id or manifest.run_id.startswith(run_id)
        ]
        exact = [m for m in matches if m.run_id == run_id]
        if exact:
            return exact[-1]
        if not matches:
            raise UnknownRunId(f"no ledger run matches {run_id!r}")
        if len({m.run_id for m in matches}) > 1:
            candidates = ", ".join(sorted({m.run_id for m in matches})[:5])
            raise AmbiguousRunId(
                f"run id prefix {run_id!r} is ambiguous: {candidates}"
            )
        return matches[-1]

    def latest(
        self, kind: Optional[str] = None, target: Optional[str] = None
    ) -> Optional[RunManifest]:
        """The most recently appended (matching) manifest, or ``None``."""
        manifests = self.select(kind=kind, target=target)
        return manifests[-1] if manifests else None

    def __len__(self) -> int:
        return len(self.read())

    def __repr__(self) -> str:
        return f"RunLedger({str(self.directory)!r})"


def ledger_from_env(explicit: Optional[str] = None) -> Optional[RunLedger]:
    """A :class:`RunLedger` from *explicit* or ``$REPRO_LEDGER_DIR``."""
    directory = explicit or os.environ.get(LEDGER_ENV_VAR) or None
    return RunLedger(directory) if directory else None


# ----------------------------------------------------------------------
# Diffing and rendering.
# ----------------------------------------------------------------------
#: Configuration/identity fields ``diff_manifests`` compares for equality.
CONFIG_FIELDS = (
    "kind", "target", "scale", "backend", "policies",
    "model_fingerprint", "seed", "git_sha", "python", "platform",
)

#: Numeric cost fields ``diff_manifests`` reports deltas for.
NUMERIC_FIELDS = ("wall_s", "instructions", "ips", "energy_nj")


def diff_manifests(a: RunManifest, b: RunManifest) -> Dict[str, object]:
    """Per-field comparison of two manifests (``repro runs diff``).

    ``config`` holds only the identity fields that *differ* (an empty
    dict means the runs are comparable); ``metrics`` always carries the
    numeric cost fields with absolute and, where defined, relative
    deltas, plus ``fidelity.score`` and ``fidelity.mean_abs_error_pp``
    when either run was fidelity-scored; ``phases`` diffs the union of
    both runs' phase timings.
    """
    diff: Dict[str, object] = {
        "a": a.run_id,
        "b": b.run_id,
        "config": {},
        "metrics": {},
        "phases": {},
    }
    for field in CONFIG_FIELDS:
        value_a, value_b = getattr(a, field), getattr(b, field)
        if value_a != value_b:
            diff["config"][field] = {"a": value_a, "b": value_b}
    for field in NUMERIC_FIELDS:
        value_a = float(getattr(a, field))
        value_b = float(getattr(b, field))
        entry: Dict[str, object] = {
            "a": value_a, "b": value_b, "delta": value_b - value_a,
        }
        if value_a:
            entry["delta_fraction"] = (value_b - value_a) / abs(value_a)
        diff["metrics"][field] = entry
    # The score only moves when a metric crosses its tolerance band;
    # the mean error shows drift inside the band.
    for field in ("score", "mean_abs_error_pp"):
        value_a = (a.fidelity or {}).get(field)
        value_b = (b.fidelity or {}).get(field)
        if value_a is None and value_b is None:
            continue
        entry = {"a": value_a, "b": value_b}
        if value_a is not None and value_b is not None:
            entry["delta"] = value_b - value_a
        diff["metrics"][f"fidelity.{field}"] = entry
    for name in sorted(set(a.phases) | set(b.phases)):
        phase_a, phase_b = a.phases.get(name), b.phases.get(name)
        entry = {"a": phase_a, "b": phase_b}
        if phase_a is not None and phase_b is not None:
            entry["delta"] = phase_b - phase_a
        diff["phases"][name] = entry
    return diff


def _fmt(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def render_manifest(manifest: RunManifest) -> str:
    """One manifest as a readable field listing (``repro runs show``)."""
    lines = [f"run {manifest.run_id}"]
    rows = [
        ("created", manifest.created),
        ("kind", manifest.kind),
        ("command", manifest.command),
        ("target", manifest.target),
        ("scale", manifest.scale),
        ("backend", manifest.backend),
        ("policies", ", ".join(manifest.policies) or "-"),
        ("model", manifest.model_fingerprint),
        ("seed", manifest.seed),
        ("git sha", manifest.git_sha),
        ("python", manifest.python),
        ("platform", manifest.platform),
        ("wall_s", f"{manifest.wall_s:.3f}"),
        ("instructions", manifest.instructions),
        ("ips", f"{manifest.ips:,.0f}"),
        ("energy_nj", f"{manifest.energy_nj:,.1f}"),
    ]
    if manifest.fidelity:
        rows.append((
            "fidelity",
            f"{manifest.fidelity.get('score', 0):.3f} "
            f"over {manifest.fidelity.get('metrics', 0):g} metric(s)",
        ))
    for label, value in rows:
        lines.append(f"  {label:<13} {_fmt(value)}")
    for section, payload in (
        ("phases", {k: f"{v:.4f}s" for k, v in manifest.phases.items()}),
        ("cache", manifest.cache),
        ("cache_io", manifest.cache_io),
        ("pool", manifest.pool),
    ):
        if not payload:
            continue
        lines.append(f"  {section}:")
        for key in sorted(payload):
            lines.append(f"    {key:<24} {_fmt(payload[key])}")
    if manifest.extra:
        lines.append(f"  extra fields: {', '.join(sorted(manifest.extra))}")
    return "\n".join(lines)


def render_manifest_diff(diff: Dict[str, object]) -> str:
    """The ``repro runs diff`` text view of :func:`diff_manifests`."""
    lines = [f"diff {diff['a']} -> {diff['b']}"]
    config = diff.get("config") or {}
    if config:
        lines.append("  configuration differs:")
        for field in sorted(config):
            entry = config[field]
            lines.append(
                f"    {field:<18} {_fmt(entry['a'])} -> {_fmt(entry['b'])}"
            )
    else:
        lines.append("  configuration: identical")
    lines.append("  metrics:")
    for field, entry in (diff.get("metrics") or {}).items():
        rel = entry.get("delta_fraction")
        rel_text = "" if rel is None else f" ({rel:+.1%})"
        delta = entry.get("delta")
        delta_text = "" if delta is None else f" delta {delta:+g}"
        lines.append(
            f"    {field:<26} {_fmt(entry['a'])} -> {_fmt(entry['b'])}"
            f"{delta_text}{rel_text}"
        )
    phases = diff.get("phases") or {}
    if phases:
        lines.append("  phases (self seconds):")
        for name in sorted(phases):
            entry = phases[name]
            delta = entry.get("delta")
            delta_text = "" if delta is None else f" delta {delta:+.4f}s"
            lines.append(
                f"    {name:<24} {_fmt(entry['a'])} -> {_fmt(entry['b'])}"
                f"{delta_text}"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Collection: build a manifest from a finished telemetry session.
# ----------------------------------------------------------------------
def _registry_total(registry, name: str) -> float:
    """Sum of every series value under one metric name."""
    return float(sum(series.value for series in registry.series(name)))


def fidelity_summary(metrics: Sequence) -> Optional[Dict[str, float]]:
    """Collapse per-metric fidelity scores into a manifest-sized dict.

    ``score`` is the fraction of scored metrics inside their paper
    tolerance band and ``mean_abs_error_pp`` their mean distance from
    the paper; ``repro runs diff`` reports both.
    """
    metrics = list(metrics)
    if not metrics:
        return None
    within = sum(1 for metric in metrics if metric.within)
    return {
        "score": within / len(metrics),
        "metrics": len(metrics),
        "mean_abs_error_pp": (
            sum(metric.abs_error for metric in metrics) / len(metrics)
        ),
    }


def collect_manifest(
    kind: str,
    command: str,
    target: str,
    telemetry,
    wall_s: float,
    runner_config: Optional[Dict[str, object]] = None,
    seed: Optional[int] = None,
    fidelity: Optional[Dict[str, float]] = None,
) -> RunManifest:
    """A manifest assembled from a finished (enabled) telemetry session.

    *runner_config* is a :meth:`SuiteRunner.describe` dict; the fields a
    manifest tracks (scale/backend/policies/model fingerprint) are
    lifted out of it, everything else is ignored.
    """
    from .summary import cache_io_stats, cache_stats, phase_totals, pool_stats

    registry = telemetry.registry
    instructions = int(_registry_total(registry, "runstats.dynamic_instructions"))
    config = runner_config or {}
    return RunManifest.new(
        kind=kind,
        command=command,
        target=target,
        scale=float(config.get("scale", 1.0)),
        backend=str(config.get("backend", "classic")),
        policies=[str(name) for name in config.get("policies", [])],
        model_fingerprint=config.get("model_fingerprint"),
        seed=seed,
        wall_s=wall_s,
        phases={
            total.name: total.self_time_s
            for total in phase_totals(telemetry.tracer.tree())
        },
        instructions=instructions,
        ips=instructions / wall_s if wall_s > 0 else 0.0,
        energy_nj=_registry_total(registry, "run.energy_nj"),
        fidelity=fidelity,
        cache=cache_stats(registry),
        cache_io=cache_io_stats(registry),
        pool=pool_stats(registry),
    )
