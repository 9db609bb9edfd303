"""Word-addressed functional memory with read-only protection.

The functional value store is deliberately separate from the cache
hierarchy (``repro.machine.cache``): caches track *where* data would be
serviced from (tags, LRU, dirtiness) for energy/timing purposes, while
:class:`Memory` always holds the authoritative values.  This is the
standard functional/timing split of trace-driven simulators and lets the
amnesic machine verify recomputed values against ground truth.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple, Union

from ..errors import MemoryFault
from ..isa.program import DataSegment

Number = Union[int, float]


class Memory:
    """The authoritative word-addressed value store of a machine."""

    def __init__(self, data: DataSegment | None = None):
        self._cells: Dict[int, Number] = {}
        self._read_only: Tuple[Tuple[int, int], ...] = ()
        if data is not None:
            self._cells.update(data.cells)
            self._read_only = tuple(data.read_only)

    # ------------------------------------------------------------------
    # Access.
    # ------------------------------------------------------------------
    def read(self, address: int) -> Number:
        """Read the word at *address*; unmapped addresses fault.

        Faulting (rather than returning zero) catches kernel bugs where a
        load computes a stray address — important because the amnesic
        compiler trusts the profile of every load it swaps.
        """
        try:
            return self._cells[address]
        except KeyError:
            raise MemoryFault(f"read of unmapped address {address:#x}") from None

    def write(self, address: int, value: Number) -> None:
        """Write the word at *address*; read-only ranges fault."""
        if self.is_read_only(address):
            raise MemoryFault(f"write to read-only address {address:#x}")
        self._cells[address] = value

    def is_read_only(self, address: int) -> bool:
        """True if *address* lies in a read-only (program input) range."""
        return any(lo <= address < hi for lo, hi in self._read_only)

    # ------------------------------------------------------------------
    # Inspection helpers (tests, analysis).
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[int, Number]:
        """A copy of all mapped cells."""
        return dict(self._cells)

    def read_block(self, base: int, count: int) -> list:
        """Read *count* consecutive words starting at *base*."""
        return [self.read(base + i) for i in range(count)]

    def addresses(self) -> Iterable[int]:
        """All mapped addresses."""
        return self._cells.keys()

    def __len__(self) -> int:
        return len(self._cells)
