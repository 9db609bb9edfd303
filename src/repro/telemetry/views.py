"""Live views of the paper's Figure 6-8 observables, mid-run.

The post-hoc experiments (:mod:`repro.harness.experiments`) compute the
figure data from *compilation* results after a run finishes; these
views derive the same observables from the telemetry a session records
*while it runs* — per-RCMP decision events and timeline windows — so
fidelity drift is attributable to a specific policy, benchmark, or
execution window instead of only being scored at the end.

All functions take parsed event dicts (a live ``ListSink.events`` list
or a :func:`repro.telemetry.sink.read_events` result) or the session's
:class:`~repro.telemetry.timeline.TimelineTrack` objects; nothing here
touches the interpreters.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, Iterable

from .timeline import TimelineTrack


def _rcmp_events(events: Iterable[Dict[str, object]]):
    for event in events:
        if event.get("type") == "rcmp":
            yield event


def slice_length_view(events: Iterable[Dict[str, object]]) -> Dict[int, int]:
    """Dynamic RSlice-length distribution (the Fig. 6 observable, live).

    Figure 6 plots static slice lengths from the compiler; the live view
    counts the lengths of slices the scheduler actually *fired*, which
    is the execution-weighted version of the same distribution.
    """
    lengths: Counter = Counter()
    for event in _rcmp_events(events):
        if event.get("outcome") == "fired":
            lengths[int(event.get("slice_len", 0))] += 1
    return dict(sorted(lengths.items()))


def share_below(lengths: Dict[int, int], limit: int = 10) -> float:
    """Fraction of slices shorter than *limit* (Fig. 6's headline stat)."""
    total = sum(lengths.values())
    if total == 0:
        return 0.0
    short = sum(count for length, count in lengths.items() if length < limit)
    return short / total


def checkpoint_readiness_view(
    events: Iterable[Dict[str, object]],
) -> Dict[str, Dict[str, int]]:
    """Per-policy availability of non-recomputable-leaf checkpoints.

    The live counterpart of Figure 7: where Fig. 7 reports the static
    share of RSlices *with* non-recomputable leaf inputs, this reports
    how often those inputs' Hist checkpoints were actually present when
    an RCMP consulted them (``hist_ready``), split by decision outcome.
    """
    readiness: Dict[str, Dict[str, int]] = defaultdict(
        lambda: {"ready": 0, "missing": 0}
    )
    for event in _rcmp_events(events):
        policy = str(event.get("policy", "?"))
        key = "ready" if event.get("hist_ready") else "missing"
        readiness[policy][key] += 1
    return dict(readiness)


def residence_view(
    events: Iterable[Dict[str, object]], fired_only: bool = False
) -> Dict[str, int]:
    """Where the loads behind RCMP decisions would have been serviced.

    The live counterpart of the Fig. 8 / Table 5 locality observables:
    a histogram of the residence level (L1/L2/MEM) the scheduler saw at
    each RCMP, optionally restricted to fired ones (i.e. where swapped
    loads would have hit).
    """
    residence: Counter = Counter()
    for event in _rcmp_events(events):
        if fired_only and event.get("outcome") != "fired":
            continue
        residence[str(event.get("residence", "?"))] += 1
    return dict(sorted(residence.items()))


def occupancy_view(timelines: Iterable[TimelineTrack]) -> Dict[str, Dict[str, float]]:
    """Peak and mean occupancy per structure across the session's runs.

    The data the checkpointing follow-up (arXiv 1710.04685) needs:
    Hist/SFile occupancy over time, folded here to peak / mean /
    final-window values per amnesic structure.
    """
    views: Dict[str, Dict[str, float]] = {}
    for track in timelines:
        for structure in ("sfile", "hist", "ibuff"):
            name = f"{structure}.occupancy"
            series = track.level_series(name)
            if not series or not any(series):
                continue
            view = views.setdefault(
                structure, {"peak": 0.0, "mean": 0.0, "last": 0.0, "_n": 0.0}
            )
            view["peak"] = max(view["peak"], max(series))
            view["mean"] += sum(series)
            view["_n"] += len(series)
            view["last"] = series[-1]
    for view in views.values():
        if view["_n"]:
            view["mean"] /= view["_n"]
        del view["_n"]
    return views


def figure_observables(
    events: Iterable[Dict[str, object]],
    timelines: Iterable[TimelineTrack] = (),
) -> Dict[str, object]:
    """Every live figure observable in one JSON-able payload.

    ``repro stats --format json`` embeds this, so a monitoring loop can
    diff the mid-run distributions against the paper targets without
    waiting for the experiment harness.
    """
    events = list(events)
    lengths = slice_length_view(events)
    return {
        "slice_lengths": lengths,
        "slice_share_below_10": share_below(lengths, 10),
        "checkpoint_readiness": checkpoint_readiness_view(events),
        "rcmp_residence": residence_view(events),
        "fired_residence": residence_view(events, fired_only=True),
        "occupancy": occupancy_view(list(timelines)),
    }
