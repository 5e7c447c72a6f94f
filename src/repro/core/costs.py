"""Cost models of Sections III-B and III-C.

Three quantities characterize a fused group:

* **Reuse storage** — extra on-chip memory holding the intermediate values
  shared by consecutive pyramids. For a consumer level with kernel K and
  stride S over an input tile of height D, the paper's model stores
  ``D x (K-S) x N`` elements on the right of the tile (the BL buffer,
  reused as the base slides along a row) and ``(K-S) x W x N`` at the
  bottom (the BT buffer, reused by the next row of pyramids; W is the full
  feature-map width, per the Listing 4 implementation where BT is indexed
  by the absolute column).

* **Recompute overhead** — the extra arithmetic if shared intermediate
  values are recomputed by every pyramid that needs them instead of being
  cached. Computed *exactly* by integrating the clamped pyramid footprint
  over all positions, per level as (row-range lengths summed over tip
  rows) x (column-range lengths summed over tip columns), then
  subtracting the one-pass operation count.

* **DRAM transfer** — feature-map bytes crossing the chip boundary: the
  group's input map is read once and its final output written once;
  everything in between stays on chip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..nn.shapes import BYTES_PER_WORD
from ..nn.stages import Level
from .pyramid import axis_footprint, build_pyramid


@dataclass(frozen=True)
class ReuseBufferPlan:
    """Reuse-buffer sizing for one intermediate feature map.

    The map is produced by ``producer`` and consumed by a level with
    ``kernel``/``stride``; ``overlap = K - S`` rows/columns are shared by
    adjacent pyramids and must be buffered.
    """

    producer_name: str
    consumer_name: str
    channels: int
    overlap: int
    bl_elements: int  # right-edge columns, reused along a pyramid row
    bt_elements: int  # bottom rows (full map width), reused by the next row

    @property
    def total_elements(self) -> int:
        return self.bl_elements + self.bt_elements

    @property
    def total_bytes(self) -> int:
        return self.total_elements * BYTES_PER_WORD


def reuse_buffer_plans(levels: Sequence[Level], tip_h: int = 1, tip_w: int = 1,
                       include_input_level: bool = False,
                       bt_full_width: bool = True) -> "list[ReuseBufferPlan]":
    """Size the BL/BT reuse buffers for every intermediate map of a group.

    Only *intermediate* maps (between fused levels) are counted by default,
    matching Figure 7's x-axis ("extra storage required to hold the
    intermediate data between the fused-layers"). Pass
    ``include_input_level=True`` to also count row-reuse buffering of the
    group's DRAM input (needed for the input to be read exactly once; a
    few KB for the networks studied).

    ``bt_full_width`` selects the BT-sizing convention: True (default)
    spans the full feature-map row, as Listing 4's implementation does
    (BT is indexed by the absolute column, so the whole row must be
    buffered for the next pyramid row) — this reproduces the paper's
    362 KB for the five-layer VGG fusion. False applies Section III-B's
    formula literally, ``(K - S) x D x N`` with D the tile extent, a
    lower bound that ignores the row-to-row reuse distance.
    """
    geometry = build_pyramid(levels, tip_h, tip_w)
    plans: "list[ReuseBufferPlan]" = []
    first = 0 if include_input_level else 1
    for i in range(first, len(levels)):
        consumer_tile = geometry.tiles[i]
        consumer = consumer_tile.level
        overlap = consumer.overlap
        if overlap == 0:
            continue
        channels = consumer.in_channels
        # BL: a (tile height) x (K-S) column strip per channel.
        bl = consumer_tile.in_h * overlap * channels
        # BT: (K-S) rows per channel; full map width under the Listing 4
        # convention (stored values are computed feature data, so width
        # excludes padding zeros), tile width under the literal formula.
        bt_width = consumer.in_shape.width if bt_full_width else consumer_tile.in_w
        bt = overlap * bt_width * channels
        producer_name = levels[i - 1].name if i > 0 else "<input>"
        plans.append(
            ReuseBufferPlan(
                producer_name=producer_name,
                consumer_name=consumer.name,
                channels=channels,
                overlap=overlap,
                bl_elements=bl,
                bt_elements=bt,
            )
        )
    return plans


def reuse_storage_bytes(levels: Sequence[Level], tip_h: int = 1, tip_w: int = 1,
                        include_input_level: bool = False,
                        bt_full_width: bool = True) -> int:
    """Total extra on-chip bytes for the reuse strategy (Section III-B)."""
    plans = reuse_buffer_plans(levels, tip_h, tip_w, include_input_level,
                               bt_full_width)
    return sum(plan.total_bytes for plan in plans)


def one_pass_ops(levels: Sequence[Level]) -> int:
    """Arithmetic operations to evaluate the group once with no redundancy
    (what the reuse strategy — and a layer-by-layer evaluation — performs)."""
    return sum(level.total_ops for level in levels)


def recompute_ops(levels: Sequence[Level], tip_h: int = 1, tip_w: int = 1) -> int:
    """Total arithmetic under the recompute strategy.

    Every pyramid computes its entire footprint independently; shared
    intermediate points are computed once per pyramid that needs them.
    Summed exactly over all pyramid positions with border clamping: a
    level's region at position (r, c) is its row range at r times its
    column range at c, so the sum over positions is a product of per-axis
    sums, O(rows + cols) walks instead of O(rows x cols).
    """
    if not levels:
        return 0
    rows, cols = build_pyramid(levels, tip_h, tip_w).num_positions
    row_sums = _axis_sums(levels, rows, tip_h, "height")
    col_sums = _axis_sums(levels, cols, tip_w, "width")
    return sum(row_sum * col_sum * level.out_channels * level.ops_per_output
               for level, row_sum, col_sum in zip(levels, row_sums, col_sums))


def _axis_sums(levels: Sequence[Level], positions: int, tip: int,
               axis: str) -> "list[int]":
    """Per level, its :func:`axis_footprint` range lengths summed over the
    tip positions along ``axis``."""
    walks = [axis_footprint(levels, index, tip, axis) for index in range(positions)]
    return [sum(hi - lo for lo, hi in ranges) for ranges in zip(*walks)]


def recompute_overhead_ops(levels: Sequence[Level], tip_h: int = 1, tip_w: int = 1) -> int:
    """Extra operations of recompute relative to one redundancy-free pass."""
    return recompute_ops(levels, tip_h, tip_w) - one_pass_ops(levels)


def recompute_overhead_adjacent(levels: Sequence[Level], tip_h: int = 1,
                                tip_w: int = 1) -> int:
    """The paper's Section III-B recompute estimate.

    "We can determine the cost of recomputation simply by examining two
    consecutive pyramids and examining the locations where they overlap
    (e.g., the 6M blue circles) ... Summing these values gives the
    arithmetic overhead of recomputing intermediate values for each
    pyramid."

    For each intermediate level the horizontally-adjacent overlap is a
    ``tile_h x (tile_w - step)`` strip per feature map; its recompute cost
    is charged once per pyramid. This deliberately ignores the compounding
    of redundancy across rows and across multiple levels, so it lower-
    bounds :func:`recompute_overhead_ops` (the exact count); the paper's
    headline numbers (678M extra ops for AlexNet's first two layers, 470B
    for all of VGGNet-E) come from this style of estimate.
    """
    if len(levels) < 2:
        return 0
    geometry = build_pyramid(levels, tip_h, tip_w)
    rows, cols = geometry.num_positions
    num_pyramids = rows * cols
    extra = 0
    for i in range(len(levels) - 1):
        tile = geometry.tiles[i]
        # Advance of level i's output per pyramid step = the stride product
        # of everything above it (the consumer's input step).
        step = geometry.tiles[i + 1].step_w
        overlap_w = max(tile.out_w - step, 0)
        points = tile.out_h * overlap_w * levels[i].out_channels
        extra += points * levels[i].ops_per_output * num_pyramids
    return extra


@dataclass(frozen=True)
class TransferBreakdown:
    """Feature-map DRAM traffic for a fused group (bytes per image)."""

    input_bytes: int
    output_bytes: int
    weight_bytes: int

    @property
    def feature_map_bytes(self) -> int:
        return self.input_bytes + self.output_bytes

    @property
    def total_bytes(self) -> int:
        return self.feature_map_bytes + self.weight_bytes


def group_transfer(levels: Sequence[Level]) -> TransferBreakdown:
    """DRAM traffic for one fused group: input read once, output written
    once, weights loaded once (they fit on chip for early layers)."""
    first, last = levels[0], levels[-1]
    weights = sum(level.weight_count for level in levels)
    return TransferBreakdown(
        input_bytes=first.in_shape.bytes,
        output_bytes=last.out_shape.bytes,
        weight_bytes=weights * BYTES_PER_WORD,
    )


def intermediate_transfer_saved(levels: Sequence[Level]) -> int:
    """Bytes of DRAM traffic a fused group avoids: each intermediate map
    would otherwise be written once and read back once (Section III-B)."""
    saved = 0
    for level in levels[:-1]:
        saved += 2 * level.out_shape.bytes
    return saved
