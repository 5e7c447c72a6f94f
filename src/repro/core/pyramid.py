"""Pyramid geometry: the backward tile-size computation of Section III-B.

Starting from a tile of the fused group's *final* output (the pyramid tip,
``1x1`` by construction in the paper's model), each level's required input
tile follows ``D = S*D' + K - S``. Walking backwards over all fused levels
yields the pyramid: per-level input/output tile sizes, down to the pyramid
base read from DRAM.

Tiles live in *padded* coordinates at each level's input (padding zeros are
materialized by the accelerator's padding stage). Tiles near feature-map
borders clamp to the map; :func:`axis_footprint` computes a level's exact
clamped rows from the tip row alone (columns from the tip column), so the
recompute-cost model integrates the two axes separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import List, Sequence, Tuple

from ..nn.shapes import ShapeError, input_extent_for
from ..nn.stages import Level


@dataclass(frozen=True)
class LevelTile:
    """Tile dimensions at one level of a pyramid (steady-state interior)."""

    level: Level
    out_h: int
    out_w: int
    in_h: int  # input tile extent, padded coordinates
    in_w: int
    step_h: int  # rows/cols by which this level's input advances per
    step_w: int  # pyramid step (the consumer-side stride product)

    @property
    def new_in_h(self) -> int:
        """Fresh input rows needed per vertical pyramid step (the rest is
        the ``K - S`` overlap held in reuse buffers)."""
        return min(self.step_h, self.in_h)

    @property
    def new_in_w(self) -> int:
        return min(self.step_w, self.in_w)


@dataclass(frozen=True)
class PyramidGeometry:
    """The full pyramid for a fused group: one :class:`LevelTile` per level,
    ordered from first (base) to last (tip) level."""

    tiles: Tuple[LevelTile, ...]
    tip_h: int
    tip_w: int

    @property
    def levels(self) -> List[Level]:
        return [tile.level for tile in self.tiles]

    @property
    def base_h(self) -> int:
        """Input-tile height at the group's first level (padded coords)."""
        return self.tiles[0].in_h

    @property
    def base_w(self) -> int:
        return self.tiles[0].in_w

    @property
    def num_positions(self) -> Tuple[int, int]:
        """Number of pyramid positions (rows, cols) needed to cover the
        group's final output feature map."""
        final = self.tiles[-1].level.out_shape
        return ceil(final.height / self.tip_h), ceil(final.width / self.tip_w)


def build_pyramid(levels: Sequence[Level], tip_h: int = 1, tip_w: int = 1) -> PyramidGeometry:
    """Compute pyramid tile sizes for ``levels`` fused into one group.

    ``tip_h x tip_w`` is the output tile at the final level (Section III-B
    uses 1x1; the FPGA design may use larger tips — see the ablation
    benchmarks). Raises :class:`ShapeError` for an empty group or a tip
    larger than the final output map.
    """
    if not levels:
        raise ShapeError("cannot build a pyramid over zero levels")
    final = levels[-1].out_shape
    if tip_h <= 0 or tip_w <= 0:
        raise ShapeError(f"tip must be positive, got {tip_h}x{tip_w}")
    if tip_h > final.height or tip_w > final.width:
        raise ShapeError(
            f"tip {tip_h}x{tip_w} exceeds final output map {final.height}x{final.width}"
        )

    out_h, out_w = tip_h, tip_w
    step_h, step_w = tip_h, tip_w
    tiles: List[LevelTile] = []
    for level in reversed(levels):
        in_h = input_extent_for(out_h, level.kernel, level.stride)
        in_w = input_extent_for(out_w, level.kernel, level.stride)
        step_h *= level.stride
        step_w *= level.stride
        padded = level.padded_in_shape
        tiles.append(
            LevelTile(
                level=level,
                out_h=out_h,
                out_w=out_w,
                in_h=min(in_h, padded.height),
                in_w=min(in_w, padded.width),
                step_h=step_h,
                step_w=step_w,
            )
        )
        out_h, out_w = tiles[-1].in_h, tiles[-1].in_w
        # The next level up produces this level's *unpadded* input; its
        # output tile is the input tile we just derived (padding is applied
        # between levels, so a producing tile may be smaller at the borders
        # — the steady-state interior value is what sizes the hardware).
    return PyramidGeometry(tiles=tuple(reversed(tiles)), tip_h=tip_h, tip_w=tip_w)


def backward_range(out_lo: int, out_hi: int, kernel: int, stride: int) -> Tuple[int, int]:
    """Map an output index range ``[out_lo, out_hi)`` to the padded-input
    range it depends on: ``[out_lo*S, (out_hi-1)*S + K)``."""
    if out_hi <= out_lo:
        return (out_lo * stride, out_lo * stride)
    return (out_lo * stride, (out_hi - 1) * stride + kernel)


def clamped_range(lo: int, hi: int, extent: int) -> Tuple[int, int]:
    """Clamp ``[lo, hi)`` to ``[0, extent)``; empty ranges collapse in-bounds."""
    lo = min(max(lo, 0), extent)
    hi = min(max(hi, lo), extent)
    return (lo, hi)


@dataclass(frozen=True)
class PositionFootprint:
    """Exact per-level computed regions for one pyramid position.

    ``out_ranges[i]`` is the (row_lo, row_hi, col_lo, col_hi) region of
    level ``i``'s *output* map (unpadded coordinates) that the pyramid at
    this position must have available.
    """

    out_ranges: Tuple[Tuple[int, int, int, int], ...]


def axis_footprint(levels: Sequence[Level], index: int, tip: int,
                   axis: str) -> Tuple[Tuple[int, int], ...]:
    """Each level's output range (unpadded, first level first) along
    ``axis`` — ``"height"`` for tip row ``index`` of height ``tip``,
    ``"width"`` for a tip column — back-projected from the tip's block:
    padded input range, minus padding, clamped to the unpadded map."""
    lo, hi = clamped_range(index * tip, index * tip + tip,
                           getattr(levels[-1].out_shape, axis))
    ranges: List[Tuple[int, int]] = []
    for level in reversed(levels):
        ranges.append((lo, hi))
        in_lo, in_hi = backward_range(lo, hi, level.kernel, level.stride)
        lo, hi = clamped_range(in_lo - level.pad, in_hi - level.pad,
                               getattr(level.in_shape, axis))
    return tuple(reversed(ranges))


def position_footprint(levels: Sequence[Level], tip_row: int, tip_col: int,
                       tip_h: int = 1, tip_w: int = 1) -> PositionFootprint:
    """Trace one pyramid position backward with exact border clamping.

    ``tip_row``/``tip_col`` index pyramid positions (each covering a
    ``tip_h x tip_w`` block of the final output map). Each level's region
    pairs the :func:`axis_footprint` row range with the column range.
    """
    rows = axis_footprint(levels, tip_row, tip_h, "height")
    cols = axis_footprint(levels, tip_col, tip_w, "width")
    return PositionFootprint(out_ranges=tuple(
        (r0, r1, c0, c1) for (r0, r1), (c0, c1) in zip(rows, cols)))
