"""The design-space exploration tool of Section V-A.

The paper built this as a Torch extension: read a network description,
enumerate every fusion partition, and report the storage/transfer (or
recompute/transfer) trade-off of each. This module is the same tool over
the :mod:`repro.nn` IR.

Every partition is scored, so the point count doubles with each fusion
unit; the scores are sums over one table of the ``l(l+1)/2`` group
analyses (:class:`~repro.core.partition.GroupTable`), so a point costs
a few additions and about 300 B. On a 2-vCPU VM the paper's 5-conv
VGGNet-E space (64 partitions) takes about 1 ms, 10 convs (4,096
partitions) about 40 ms, and full VGGNet-E (2^20 partitions) about 20 s
at a 580 MB peak RSS; bound larger sweeps with ``budget``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from .. import obs
from ..errors import BudgetExceeded, ConfigError, SimFaultError
from ..faults.budget import ExplorationBudget
from ..nn.network import Network
from ..nn.stages import FusionUnit, extract_levels, independent_units, pooling_merged_units
from .fusion import Strategy
from .pareto import pareto_front
from .partition import PartitionAnalysis, enumerate_partitions


@dataclass(frozen=True)
class ExplorationResult:
    """Every scored partition of a network plus its Pareto frontier.

    ``degraded`` marks a budget-truncated search: ``points`` then holds
    the best-so-far sweep (never empty) and ``front`` the Pareto frontier
    of *those* points — a valid but possibly incomplete answer.
    """

    network_name: str
    units: Tuple[FusionUnit, ...]
    strategy: Strategy
    points: Tuple[PartitionAnalysis, ...]
    front: Tuple[PartitionAnalysis, ...]
    degraded: bool = field(default=False)

    @property
    def num_partitions(self) -> int:
        return len(self.points)

    @property
    def layer_by_layer(self) -> PartitionAnalysis:
        """The no-fusion extreme (the paper's point A)."""
        for point in self.points:
            if point.is_layer_by_layer:
                return point
        raise SimFaultError("layer-by-layer partition missing from exploration",
                            network=self.network_name,
                            partitions=self.num_partitions,
                            degraded=self.degraded)

    @property
    def fully_fused(self) -> PartitionAnalysis:
        """The single-pyramid extreme (the paper's point C)."""
        for point in self.points:
            if point.is_fully_fused:
                return point
        raise SimFaultError("fully fused partition missing from exploration",
                            network=self.network_name,
                            partitions=self.num_partitions,
                            degraded=self.degraded)

    def best_under_storage(self, budget_bytes: int) -> Optional[PartitionAnalysis]:
        """Minimum-transfer partition whose extra storage fits the budget.

        Ties on both costs resolve to the earliest point in enumeration
        order — the partition index is the final sort key, so the pick
        does not depend on how ``min`` orders equal keys (plan-cache
        keys depend on it).
        """
        feasible = [(i, p) for i, p in enumerate(self.points)
                    if p.extra_storage_bytes <= budget_bytes]
        if not feasible:
            return None
        return min(feasible,
                   key=lambda ip: (ip[1].feature_transfer_bytes,
                                   ip[1].extra_storage_bytes, ip[0]))[1]

    def best_under_transfer(self, budget_bytes: int) -> Optional[PartitionAnalysis]:
        """Minimum-storage partition whose traffic fits the budget.

        Equal-cost ties resolve by partition index, like
        :meth:`best_under_storage`.
        """
        feasible = [(i, p) for i, p in enumerate(self.points)
                    if p.feature_transfer_bytes <= budget_bytes]
        if not feasible:
            return None
        return min(feasible,
                   key=lambda ip: (ip[1].extra_storage_bytes,
                                   ip[1].feature_transfer_bytes, ip[0]))[1]


def explore(network: Network, num_convs: Optional[int] = None,
            strategy: Strategy = Strategy.REUSE,
            merge_pooling: bool = False,
            tip_h: int = 1, tip_w: int = 1,
            budget: Optional[ExplorationBudget] = None,
            on_budget: str = "degrade") -> ExplorationResult:
    """Explore all fusion partitions of (a prefix of) a network.

    Parameters
    ----------
    network:
        Any zoo or user network; only its feature extractor is considered.
    num_convs:
        If given, truncate after this many convolutional layers first (the
        paper explores the first 5 convs + 2 pools of VGGNet-E).
    strategy:
        Intermediate-data strategy for fused groups.
    merge_pooling:
        When True, pooling layers move with their preceding convolution as
        one unit (Figure 2 grouping). The paper's Figure 7 search keeps
        them independent (default), letting the optimizer discover that
        merging is free.
    budget:
        An :class:`~repro.faults.budget.ExplorationBudget` bounding the
        sweep by evaluations and/or wall-clock. When it trips, behavior
        follows ``on_budget``.
    on_budget:
        ``"degrade"`` (default): return the best-so-far frontier with
        ``degraded=True`` — the graceful-degradation contract a serving
        system needs. ``"raise"``: raise
        :class:`~repro.errors.BudgetExceeded` instead.
    """
    if on_budget not in ("degrade", "raise"):
        raise ConfigError("on_budget must be 'degrade' or 'raise'",
                          on_budget=on_budget)
    sliced = network.prefix(num_convs) if num_convs is not None else network
    if budget is not None:
        budget.start()
    with obs.span("explore", network=sliced.name, strategy=strategy.name):
        with obs.span("explore.extract_units"):
            levels = extract_levels(sliced)
            units = (pooling_merged_units(levels) if merge_pooling
                     else independent_units(levels))
        with obs.span("explore.enumerate", units=len(units)):
            points = enumerate_partitions(units, strategy=strategy,
                                          tip_h=tip_h, tip_w=tip_w,
                                          budget=budget)
        degraded = budget is not None and budget.tripped
        if degraded:
            obs.add_counter("explore.degraded_searches")
            obs.add_counter("faults.budget_trips")
            if on_budget == "raise":
                raise BudgetExceeded(
                    "exploration budget exhausted",
                    network=sliced.name, scored=len(points),
                    budget=budget.describe(),
                    elapsed_s=round(budget.elapsed_seconds, 3))
        with obs.span("explore.pareto", points=len(points)):
            front = pareto_front(
                points,
                cost_x=lambda p: (p.extra_storage_bytes
                                  if strategy is Strategy.REUSE else p.extra_ops),
                cost_y=lambda p: p.feature_transfer_bytes,
            )
        obs.add_counter("explore.partitions_scored", len(points))
        obs.add_counter("explore.partitions_pruned", len(points) - len(front))
        obs.add_counter("explore.pareto_points", len(front))
    return ExplorationResult(
        network_name=sliced.name,
        units=tuple(units),
        strategy=strategy,
        points=tuple(points),
        front=tuple(front),
        degraded=degraded,
    )
