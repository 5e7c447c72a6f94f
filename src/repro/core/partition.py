"""Network partitioning: the 2^(l-1) fusion-grouping search of Section V-B.

Given ``l`` fusion units, every way of cutting the sequence into
contiguous groups corresponds to a subset of the ``l-1`` boundaries —
``2^(l-1)`` partitions, from fully layer-by-layer ``(1,1,...,1)`` to a
single all-fused pyramid ``(l,)``. Each partition is scored by total DRAM
feature-map traffic (the Figure 7 y-axis) and total extra on-chip reuse
storage (the x-axis), or extra arithmetic under the recompute strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar

from .. import obs
from ..errors import ConfigError
from ..nn.shapes import ShapeError
from ..nn.stages import FusionUnit, Level
from .fusion import GroupAnalysis, Strategy, analyze_group, units_to_levels

T = TypeVar("T")


def split_groups(items: Sequence[T], sizes: Sequence[int]) -> List[List[T]]:
    """Cut ``items`` into contiguous groups of the given ``sizes``.

    Raises :class:`~repro.nn.shapes.ShapeError` unless the sizes are
    positive and cover ``items`` exactly.
    """
    sizes = tuple(sizes)
    if sum(sizes) != len(items) or any(size <= 0 for size in sizes):
        raise ShapeError(f"sizes {sizes} do not cover {len(items)} items "
                         "with positive groups", sizes=sizes,
                         items=len(items))
    groups: List[List[T]] = []
    start = 0
    for size in sizes:
        groups.append(list(items[start:start + size]))
        start += size
    return groups


def group_tip(levels: Sequence[Level], tip_h: int,
              tip_w: Optional[int] = None) -> Tuple[int, int]:
    """A ``tip_h`` x ``tip_w`` pyramid tip (square when ``tip_w`` is
    omitted) clipped to the group's output map, so one plan-wide tip
    serves groups whose output is smaller than it."""
    final = levels[-1].out_shape
    return (min(tip_h, final.height),
            min(tip_h if tip_w is None else tip_w, final.width))


def compositions(n: int) -> Iterator[Tuple[int, ...]]:
    """All ordered compositions of ``n`` (group sizes for ``n`` units).

    ``compositions(3)`` yields (1,1,1), (1,2), (2,1), (3) — the paper's
    example. There are ``2^(n-1)`` of them.
    """
    if n < 0:
        raise ConfigError("n must be non-negative", n=n)
    if n == 0:
        yield ()
        return
    for cut_count in range(n):
        for cuts in combinations(range(1, n), cut_count):
            bounds = (0,) + cuts + (n,)
            yield tuple(bounds[i + 1] - bounds[i] for i in range(len(bounds) - 1))


@dataclass(frozen=True)
class PartitionAnalysis:
    """A scored partition of the network's fusion units into groups."""

    sizes: Tuple[int, ...]
    groups: Tuple[GroupAnalysis, ...]
    strategy: Strategy

    @property
    def feature_transfer_bytes(self) -> int:
        """DRAM feature-map traffic per image (Figure 7 y-axis): every
        group reads its input and writes its output."""
        return sum(g.transfer.feature_map_bytes for g in self.groups)

    @property
    def total_transfer_bytes(self) -> int:
        """Feature maps plus a single load of all weights."""
        return self.feature_transfer_bytes + sum(g.transfer.weight_bytes for g in self.groups)

    @property
    def extra_storage_bytes(self) -> int:
        """Extra on-chip reuse storage (Figure 7 x-axis)."""
        return sum(g.extra_storage_bytes for g in self.groups)

    @property
    def extra_ops(self) -> int:
        return sum(g.extra_ops for g in self.groups)

    @property
    def baseline_ops(self) -> int:
        return sum(g.baseline_ops for g in self.groups)

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def is_layer_by_layer(self) -> bool:
        return all(size == 1 for size in self.sizes)

    @property
    def is_fully_fused(self) -> bool:
        return len(self.sizes) == 1

    def describe(self) -> str:
        return " | ".join(g.name for g in self.groups)


class GroupTable(Dict[Tuple[int, int], GroupAnalysis]):
    """One sweep's group analyses, keyed by unit run ``(start, size)``.

    Both Figure 7 axes are sums over groups, so scoring all ``2^(l-1)``
    partitions needs only the ``l(l+1)/2`` contiguous unit runs. A run is
    analyzed on first lookup and shared by every partition containing it,
    so a budget-truncated sweep analyzes only the runs it reaches. Each
    sweep builds its own table (there is no module-level cache).
    """

    def __init__(self, units: Sequence[FusionUnit],
                 strategy: Strategy = Strategy.REUSE,
                 tip_h: int = 1, tip_w: int = 1):
        super().__init__()
        self.units = tuple(units)
        self.strategy = strategy
        self.tip_h = tip_h
        self.tip_w = tip_w

    def __missing__(self, run: Tuple[int, int]) -> GroupAnalysis:
        start, size = run
        group = self[run] = analyze_group(
            units_to_levels(self.units[start:start + size]),
            strategy=self.strategy, tip_h=self.tip_h, tip_w=self.tip_w)
        return group

    def partition(self, sizes: Tuple[int, ...]) -> PartitionAnalysis:
        """Score one partition from the table's shared entries."""
        groups: List[GroupAnalysis] = []
        start = 0
        for size in sizes:
            groups.append(self[(start, size)])
            start += size
        return PartitionAnalysis(sizes=sizes, groups=tuple(groups),
                                 strategy=self.strategy)


def analyze_partition(units: Sequence[FusionUnit], sizes: Sequence[int],
                      strategy: Strategy = Strategy.REUSE,
                      tip_h: int = 1, tip_w: int = 1) -> PartitionAnalysis:
    """Score one partition (positive group sizes summing to ``len(units)``)."""
    if sum(sizes) != len(units) or any(size <= 0 for size in sizes):
        raise ConfigError(f"sizes {tuple(sizes)} do not partition "
                          f"{len(units)} units",
                          sizes=tuple(sizes), units=len(units))
    return GroupTable(units, strategy, tip_h, tip_w).partition(tuple(sizes))


def enumerate_partitions(units: Sequence[FusionUnit],
                         strategy: Strategy = Strategy.REUSE,
                         tip_h: int = 1, tip_w: int = 1,
                         budget=None) -> List[PartitionAnalysis]:
    """Score all ``2^(l-1)`` partitions of the unit sequence.

    Every partition is built from one :class:`GroupTable`, so the sweep
    makes at most ``l(l+1)/2`` group analyses and the points share them.

    ``budget`` (an :class:`~repro.faults.budget.ExplorationBudget`) is
    charged one evaluation per partition; once it trips, enumeration
    stops at that partition boundary and the points scored so far are
    returned (at least one, so a degraded search is never empty). The
    budget object's ``tripped`` flag tells the caller the sweep was cut
    short.
    """
    table = GroupTable(units, strategy, tip_h, tip_w)
    with obs.span("partition.enumerate", units=len(units),
                  strategy=strategy.name) as span:
        points: List[PartitionAnalysis] = []
        for sizes in compositions(len(units)):
            if budget is not None and points and budget.exceeded():
                break
            points.append(table.partition(sizes))
            if budget is not None:
                budget.charge()
        span.set(partitions=len(points))
        obs.add_counter("partition.analyzed", len(points))
        obs.add_counter("partition.groups_analyzed", len(table))
    return points
