"""Microarchitectural timelines: windowed occupancy/pressure sampling.

The paper's evaluation reads end-of-run aggregates; this module records
*when* things happened.  A :class:`TimelineTrack` is attached to one
interpreter run (classic or amnesic) by the telemetry runtime; the CPU's
retire path ticks it, and every ``window`` retired instructions the
track polls the narrow ``observe()`` hooks the machine structures expose
(SFile, Hist, IBuff, the L1/L2 caches, and the run counters) and records
one :class:`WindowSample`.

Series come in two kinds, distinguished by the last path segment of the
series name:

* **levels** (``occupancy``, ``high_water``, ``live_mappings``) — the
  instantaneous reading at the window boundary;
* **cumulative counters** (everything else: hits, misses, reads,
  writes, evictions, ...) — the sampler differences consecutive
  snapshots into per-window *rates*, so a sample answers "how much Hist
  traffic happened in this window", not "since boot".

Sampling is pull-based and windowed: the per-instruction cost is one
attribute load and an integer compare, and the (dict-building) snapshot
work runs once per window.  When telemetry is disabled no track is ever
attached and the retire path pays only the ``is None`` check.

Each sample is also emitted to the session sink as a ``timeline`` event,
which is what :mod:`repro.telemetry.export` turns into Perfetto counter
tracks.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional

#: Default window width in retired instructions.
DEFAULT_TIMELINE_WINDOW = 1_000

#: Final series-name segments that denote instantaneous levels rather
#: than cumulative counters.
LEVEL_SEGMENTS = frozenset({"occupancy", "high_water", "live_mappings"})


def is_level_series(name: str) -> bool:
    """True when *name* reads as an instantaneous level, not a counter."""
    return name.rsplit(".", 1)[-1] in LEVEL_SEGMENTS


@dataclasses.dataclass
class WindowSample:
    """One timeline window: levels at the boundary, deltas across it."""

    index: int
    start_instr: int
    end_instr: int
    #: Host wall-clock (``perf_counter``) at capture, for trace export.
    wall_s: float
    levels: Dict[str, float]
    deltas: Dict[str, float]

    @property
    def instructions(self) -> int:
        return self.end_instr - self.start_instr


class TimelineTrack:
    """Windowed sample stream for one interpreter run.

    The CPU retire path (``CPU._emit``) compares the retired count with
    ``next_capture`` and calls :meth:`capture` at a window boundary, the
    test :meth:`tick` states; everything else (snapshot polling, delta
    computation, event emission) happens at window boundaries only.
    ``label`` identifies the run (``classic#0``, ``amnesic#2``...), and
    ``attrs`` carries run context such as the scheduler policy.
    """

    __slots__ = (
        "label", "window", "attrs", "samples", "next_capture",
        "_observe", "_sink", "_clock", "_last", "_last_instr", "_closed",
    )

    def __init__(
        self,
        label: str,
        observe,
        window: int = DEFAULT_TIMELINE_WINDOW,
        sink=None,
        clock=time.perf_counter,
        attrs: Optional[Dict[str, object]] = None,
    ):
        if window < 1:
            raise ValueError("timeline window must be positive")
        self.label = label
        self.window = window
        self.attrs = dict(attrs or {})
        self.samples: List[WindowSample] = []
        self.next_capture = window
        self._observe = observe
        self._sink = sink
        self._clock = clock
        self._last: Dict[str, float] = dict(observe())
        self._last_instr = 0
        self._closed = False

    # ------------------------------------------------------------------
    # The window-boundary test (``CPU._emit`` inlines it).
    # ------------------------------------------------------------------
    def tick(self, retired: int) -> None:
        """Capture at a window boundary: the test ``CPU._emit`` inlines."""
        if retired >= self.next_capture:
            self.capture(retired)

    # ------------------------------------------------------------------
    # Window capture.
    # ------------------------------------------------------------------
    def capture(self, retired: int) -> Optional[WindowSample]:
        """Snapshot the structures and close the current window."""
        if retired <= self._last_instr:
            self.next_capture = self._last_instr + self.window
            return None
        snapshot = dict(self._observe())
        levels: Dict[str, float] = {}
        deltas: Dict[str, float] = {}
        last = self._last
        for name, value in snapshot.items():
            if is_level_series(name):
                levels[name] = value
            else:
                deltas[name] = value - last.get(name, 0)
        sample = WindowSample(
            index=len(self.samples),
            start_instr=self._last_instr,
            end_instr=retired,
            wall_s=self._clock(),
            levels=levels,
            deltas=deltas,
        )
        self.samples.append(sample)
        self._last = snapshot
        self._last_instr = retired
        self.next_capture = retired + self.window
        if self._sink is not None:
            self._sink.emit(
                {
                    "type": "timeline",
                    "track": self.label,
                    "window": sample.index,
                    "t": sample.wall_s,
                    "start_instr": sample.start_instr,
                    "end_instr": sample.end_instr,
                    "levels": levels,
                    "deltas": deltas,
                    "attrs": self.attrs,
                }
            )
        return sample

    def close(self, retired: int) -> None:
        """Capture the final (possibly partial) window once, at run end."""
        if self._closed:
            return
        self._closed = True
        # Push the boundary out of the way so the partial window records.
        self.capture(retired)

    # ------------------------------------------------------------------
    # Derived views.
    # ------------------------------------------------------------------
    def series_names(self) -> List[str]:
        """Every level and delta series this track recorded."""
        names = set()
        for sample in self.samples:
            names.update(sample.levels)
            names.update(sample.deltas)
        return sorted(names)

    def level_series(self, name: str) -> List[float]:
        """The per-window readings of one level series."""
        return [sample.levels.get(name, 0.0) for sample in self.samples]

    def delta_series(self, name: str) -> List[float]:
        """The per-window deltas of one cumulative series."""
        return [sample.deltas.get(name, 0.0) for sample in self.samples]
