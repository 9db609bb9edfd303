"""RSlice and locality characterisations (paper Figures 6, 7, 8).

* Figure 6 — histogram of instruction count per recomputed RSlice under
  the Compiler policy (which recomputes every slice in the binary, so
  the histogram covers the whole compiler-identified set);
* Figure 7 — % of RSlices with non-recomputable leaf inputs ("w/ nc");
* Figure 8 — value locality of the loads swapped by the Compiler
  policy, measured on the classic profiling run.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

from ..compiler.amnesic_pass import CompilationResult
from ..core.execution import PolicyComparison
from .tables import render_histogram, render_table


# ----------------------------------------------------------------------
# Figure 6: slice-length histograms.
# ----------------------------------------------------------------------
@dataclasses.dataclass
class SliceLengthHistogram:
    """Distribution of instruction count per RSlice for one benchmark."""

    benchmark: str
    lengths: List[int]  # one entry per RSlice in the binary

    def fractions(self, bin_edges: Sequence[int]) -> List[float]:
        """Fraction of RSlices per [edge_i, edge_{i+1}) bin."""
        if not self.lengths:
            return [0.0] * (len(bin_edges) - 1)
        counts = [0] * (len(bin_edges) - 1)
        for length in self.lengths:
            for index in range(len(bin_edges) - 1):
                if bin_edges[index] <= length < bin_edges[index + 1]:
                    counts[index] += 1
                    break
        total = len(self.lengths)
        return [count / total for count in counts]

    def share_below(self, limit: int) -> float:
        """Fraction of slices shorter than *limit* instructions."""
        if not self.lengths:
            return 0.0
        return sum(1 for length in self.lengths if length < limit) / len(self.lengths)

    @property
    def max_length(self) -> int:
        return max(self.lengths, default=0)


def slice_length_histogram(
    benchmark: str, compilation: CompilationResult
) -> SliceLengthHistogram:
    """Figure 6 data for one compiled benchmark."""
    return SliceLengthHistogram(
        benchmark=benchmark,
        lengths=[rslice.length for rslice in compilation.rslices],
    )


def render_length_histogram(
    histogram: SliceLengthHistogram, bin_width: int = 5, title: str = ""
) -> str:
    top = max(histogram.max_length + 1, bin_width)
    edges = list(range(0, top + bin_width, bin_width))
    labels = [f"{edges[i]}-{edges[i + 1] - 1}" for i in range(len(edges) - 1)]
    return render_histogram(
        labels, histogram.fractions(edges),
        title=title or f"({histogram.benchmark}) % RSlices by instruction count",
    )


# ----------------------------------------------------------------------
# Figure 7: non-recomputable leaf inputs.
# ----------------------------------------------------------------------
@dataclasses.dataclass
class NonRecomputableShare:
    """w/ nc vs w/o nc split of one benchmark's RSlices."""

    benchmark: str
    with_nc: int
    without_nc: int

    @property
    def total(self) -> int:
        return self.with_nc + self.without_nc

    @property
    def with_nc_percent(self) -> float:
        return 100.0 * self.with_nc / self.total if self.total else 0.0


def nonrecomputable_share(
    benchmark: str, compilation: CompilationResult
) -> NonRecomputableShare:
    """Figure 7 data for one compiled benchmark."""
    with_nc = sum(
        1 for rslice in compilation.rslices if rslice.has_nonrecomputable_inputs
    )
    return NonRecomputableShare(
        benchmark=benchmark,
        with_nc=with_nc,
        without_nc=len(compilation.rslices) - with_nc,
    )


def render_nc_table(shares: List[NonRecomputableShare], title: str = "") -> str:
    headers = ["bench", "w/ nc", "w/o nc", "w/ nc %"]
    rows = [
        [share.benchmark, share.with_nc, share.without_nc, share.with_nc_percent]
        for share in shares
    ]
    return render_table(headers, rows, title=title)


# ----------------------------------------------------------------------
# Figure 8: value locality of swapped loads.
# ----------------------------------------------------------------------
@dataclasses.dataclass
class LocalityHistogram:
    """% of (dynamic) swapped loads per value-locality bin."""

    benchmark: str
    fractions: List[float]  # ten bins: [0-10%), ..., [90-100%]

    def weighted_mean_percent(self) -> float:
        centers = [5.0 + 10.0 * index for index in range(len(self.fractions))]
        return sum(c * f for c, f in zip(centers, self.fractions))


def locality_histogram(
    benchmark: str, comparison: PolicyComparison, bins: int = 10
) -> LocalityHistogram:
    """Figure 8 data: locality of the loads the Compiler policy swapped."""
    compilation = comparison.compilation
    tracker = compilation.profile.locality
    swapped_pcs = [rslice.load_pc for rslice in compilation.rslices]
    return LocalityHistogram(
        benchmark=benchmark,
        fractions=tracker.weighted_histogram(swapped_pcs, bins=bins),
    )


def render_locality_histogram(histogram: LocalityHistogram, title: str = "") -> str:
    labels = [f"{10 * i}-{10 * (i + 1)}%" for i in range(len(histogram.fractions))]
    return render_histogram(
        labels, histogram.fractions,
        title=title or f"({histogram.benchmark}) % loads by value locality",
    )
