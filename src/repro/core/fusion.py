"""Fusion groups: a contiguous run of fusion units evaluated as one pyramid.

A :class:`FusionGroup` bundles the geometry and the Section III-B cost
model into a single analysis record, under either intermediate-data
strategy of Section III-C:

* ``Strategy.REUSE`` — cache shared intermediate values in BL/BT buffers
  (costs on-chip storage, no extra arithmetic);
* ``Strategy.RECOMPUTE`` — recompute shared values in every pyramid
  (costs arithmetic, no extra storage).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..nn.shapes import ShapeError, TensorShape
from ..nn.stages import FusionUnit, Level
from .costs import (
    TransferBreakdown,
    group_transfer,
    intermediate_transfer_saved,
    one_pass_ops,
    recompute_overhead_ops,
    reuse_storage_bytes,
)
from .pyramid import PyramidGeometry, build_pyramid


class Strategy(enum.Enum):
    """How shared intermediate pyramid values are handled (Section III-C)."""

    REUSE = "reuse"
    RECOMPUTE = "recompute"


@dataclass(frozen=True)
class GroupAnalysis:
    """Costs and benefits of evaluating one group as a fused pyramid."""

    levels: Tuple[Level, ...]
    strategy: Strategy
    tip_h: int
    tip_w: int
    transfer: TransferBreakdown
    extra_storage_bytes: int
    extra_ops: int
    baseline_ops: int
    transfer_saved_bytes: int

    @property
    def name(self) -> str:
        return "+".join(level.name for level in self.levels)

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def is_fused(self) -> bool:
        return len(self.levels) > 1

    @property
    def ops_increase_factor(self) -> float:
        """Total-arithmetic multiplier vs a redundancy-free evaluation."""
        if self.baseline_ops == 0:
            return 1.0
        return (self.baseline_ops + self.extra_ops) / self.baseline_ops

    @property
    def input_shape(self) -> TensorShape:
        return self.levels[0].in_shape

    @property
    def output_shape(self) -> TensorShape:
        return self.levels[-1].out_shape


def analyze_group(levels: Sequence[Level], strategy: Strategy = Strategy.REUSE,
                  tip_h: int = 1, tip_w: int = 1,
                  include_input_level: bool = False) -> GroupAnalysis:
    """Run the Section III-B cost model over one fused group of levels."""
    if not levels:
        raise ShapeError("a fusion group needs at least one level")
    levels = tuple(levels)
    storage = extra_ops = 0
    if len(levels) == 1:
        # A single-level group is plain layer-by-layer evaluation: no
        # intermediate data exists, so neither strategy costs anything.
        # Its tip is still validated, as the cost models validate longer
        # groups' tips (ShapeError).
        build_pyramid(levels, tip_h, tip_w)
    elif strategy is Strategy.REUSE:
        storage = reuse_storage_bytes(levels, tip_h, tip_w, include_input_level)
    else:
        extra_ops = recompute_overhead_ops(levels, tip_h, tip_w)
    return GroupAnalysis(
        levels=levels,
        strategy=strategy,
        tip_h=tip_h,
        tip_w=tip_w,
        transfer=group_transfer(levels),
        extra_storage_bytes=storage,
        extra_ops=extra_ops,
        baseline_ops=one_pass_ops(levels),
        transfer_saved_bytes=intermediate_transfer_saved(levels),
    )


def units_to_levels(units: Sequence[FusionUnit]) -> List[Level]:
    """Flatten a run of fusion units into its constituent levels."""
    levels: List[Level] = []
    for unit in units:
        levels.extend(unit.levels)
    return levels


def group_pyramid(levels: Sequence[Level], tip_h: int = 1, tip_w: int = 1) -> PyramidGeometry:
    """Convenience re-export: the pyramid geometry for a group."""
    return build_pyramid(levels, tip_h, tip_w)
