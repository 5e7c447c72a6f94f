"""Reuse buffers: the BL / BT intermediate-data stores of Listing 4.

Each feature map flowing *between* fused levels (and optionally the group
input) owns two bounded buffers in the padded coordinate space of its
consumer:

* **BL** ("buffer left") — the last ``K - S`` *columns* of the previous
  pyramid's input window, reused as the pyramid base slides along a row.
* **BT** ("buffer top") — the last ``K - S`` *rows* of the windows
  produced while sweeping the previous pyramid row, spanning the full map
  width, reused when the base moves down to the next row.

The buffers are allocated at exactly their steady-state capacity and
every read asserts that the requested region is resident — so the
executor machine-checks that the streaming schedule never touches data
the paper's accelerator would not have on chip.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import SimFaultError


class ReuseError(SimFaultError):
    """A read touched data outside the resident BL/BT windows (a
    :class:`~repro.errors.SimFaultError`, hence still a ``RuntimeError``)."""


@dataclass(frozen=True)
class BufferSpec:
    """The fixed geometry of one map's BL/BT buffers (see
    :class:`MapReuseState`): known before any buffer is allocated."""

    name: str
    channels: int
    hp: int
    wp: int
    o_v: int
    o_h: int
    max_bl_rows: int

    @property
    def buffer_elements(self) -> int:
        return self.channels * (self.o_v * self.wp + self.max_bl_rows * self.o_h)

    def allocate(self, dtype, lead: Tuple[int, ...] = ()) -> "MapReuseState":
        """Buffers for one run; ``lead`` is its batch axis, if any."""
        return MapReuseState(**asdict(self), dtype=dtype, lead=lead)


class MapReuseState:
    """BL/BT state for one inter-level feature map.

    Coordinates are absolute indices into the consumer's *padded* input
    space (``hp x wp``). ``o_v``/``o_h`` are the consumer's vertical and
    horizontal overlaps (``K - S``); ``max_bl_rows`` is the tallest input
    window (the first pyramid row's), which bounds BL height. A stacked
    batch gives both buffers its leading axis ``lead``; every item sits
    at the same coordinates, so one set of tags serves them all.
    """

    def __init__(self, name: str, channels: int, hp: int, wp: int,
                 o_v: int, o_h: int, max_bl_rows: int, dtype=np.float32,
                 lead: Tuple[int, ...] = ()):
        self.name = name
        self.channels = channels
        self.hp = hp
        self.wp = wp
        self.o_v = o_v
        self.o_h = o_h
        self.bt: Optional[np.ndarray] = (
            np.zeros(lead + (channels, o_v, wp), dtype) if o_v > 0 else None
        )
        # Absolute row index stored in bt[:, 0, col] for each column;
        # -1 = nothing resident.
        self.bt_row_tag = np.full(wp, -1, dtype=np.int64)
        self.bl: Optional[np.ndarray] = (
            np.zeros(lead + (channels, max_bl_rows, o_h), dtype)
            if o_h > 0 else None
        )
        self.bl_row_base = -1
        self.bl_rows = 0
        self.bl_col_base = -1

    # -- capacity accounting -------------------------------------------------

    @property
    def buffer_elements(self) -> int:
        total = 0
        if self.bt is not None:
            total += self.bt.size
        if self.bl is not None:
            total += self.bl.size
        return total

    # -- BT -------------------------------------------------------------------

    def read_bt(self, row_lo: int, row_hi: int, col_lo: int, col_hi: int) -> np.ndarray:
        """Rows ``[row_lo, row_hi)`` x cols ``[col_lo, col_hi)`` from BT."""
        if self.bt is None:
            raise ReuseError(f"{self.name}: BT read but no vertical overlap")
        height = row_hi - row_lo
        if height > self.o_v:
            raise ReuseError(
                f"{self.name}: BT read of {height} rows exceeds capacity {self.o_v}"
            )
        tags = self.bt_row_tag[col_lo:col_hi]
        if not np.all(tags == row_lo):
            raise ReuseError(
                f"{self.name}: BT cols [{col_lo},{col_hi}) do not hold row {row_lo} "
                f"(tags {np.unique(tags)})"
            )
        return self.bt[..., :height, col_lo:col_hi]

    def write_bt(self, data: np.ndarray, row_lo: int, col_lo: int, col_hi: int) -> None:
        """Store rows starting at absolute ``row_lo`` for ``[col_lo, col_hi)``."""
        if self.bt is None:
            raise ReuseError(f"{self.name}: BT write but no vertical overlap")
        height = data.shape[-2]
        if height > self.o_v:
            raise ReuseError(
                f"{self.name}: BT write of {height} rows exceeds capacity {self.o_v}"
            )
        self.bt[..., :height, col_lo:col_hi] = data
        self.bt_row_tag[col_lo:col_hi] = row_lo

    # -- BL -------------------------------------------------------------------

    def read_bl(self, row_lo: int, row_hi: int, col_lo: int, col_hi: int) -> np.ndarray:
        """Rows ``[row_lo, row_hi)`` x cols ``[col_lo, col_hi)`` from BL."""
        if self.bl is None:
            raise ReuseError(f"{self.name}: BL read but no horizontal overlap")
        width = col_hi - col_lo
        if width > self.o_h:
            raise ReuseError(
                f"{self.name}: BL read of {width} cols exceeds capacity {self.o_h}"
            )
        if self.bl_col_base != col_lo:
            raise ReuseError(
                f"{self.name}: BL holds cols starting at {self.bl_col_base}, "
                f"read wants {col_lo}"
            )
        if not (self.bl_row_base <= row_lo and
                row_hi <= self.bl_row_base + self.bl_rows):
            raise ReuseError(
                f"{self.name}: BL rows [{self.bl_row_base},"
                f"{self.bl_row_base + self.bl_rows}) do not cover [{row_lo},{row_hi})"
            )
        off = row_lo - self.bl_row_base
        return self.bl[..., off:off + (row_hi - row_lo), :width]

    def write_bl(self, data: np.ndarray, row_lo: int, col_lo: int) -> None:
        """Replace BL with ``data`` (rows from ``row_lo``, cols from ``col_lo``)."""
        if self.bl is None:
            raise ReuseError(f"{self.name}: BL write but no horizontal overlap")
        rows, width = data.shape[-2:]
        if rows > self.bl.shape[-2] or width > self.o_h:
            raise ReuseError(
                f"{self.name}: BL write {rows}x{width} exceeds capacity "
                f"{self.bl.shape[-2]}x{self.o_h}"
            )
        self.bl[..., :rows, :width] = data
        self.bl_row_base = row_lo
        self.bl_rows = rows
        self.bl_col_base = col_lo
