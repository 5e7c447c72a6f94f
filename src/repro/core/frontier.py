"""Exact Pareto frontier by dynamic programming over contiguous groups.

The paper's tool enumerates all ``2^(l-1)`` partitions ("even for the
large VGGNet-E network, the entire design space is explored in just a
few minutes"). Because both scores are additive over groups —

* transfer = sum over groups of (input + output bytes),
* storage  = sum over groups of reuse-buffer bytes,

the Pareto front over partitions admits an exact dynamic program: the
front of partitions covering a prefix extends, group by group, into the
front of longer prefixes, and dominated partials can never complete into
non-dominated totals. This makes the *full* 21-level VGGNet-E space
(2^20 partitions) exact in milliseconds, where enumeration would churn
through a million candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..nn.stages import FusionUnit
from .partition import GroupTable


@dataclass(frozen=True)
class FrontierPoint:
    """One Pareto-optimal partition: group sizes and its two scores."""

    sizes: Tuple[int, ...]
    storage_bytes: int
    transfer_bytes: int


def _prune(points: List[FrontierPoint]) -> List[FrontierPoint]:
    """Keep only non-dominated (storage, transfer) pairs."""
    points.sort(key=lambda p: (p.storage_bytes, p.transfer_bytes))
    kept: List[FrontierPoint] = []
    best = None
    for point in points:
        if best is None or point.transfer_bytes < best:
            kept.append(point)
            best = point.transfer_bytes
    return kept


def pareto_frontier_dp(units: Sequence[FusionUnit], tip_h: int = 1,
                       tip_w: int = 1) -> List[FrontierPoint]:
    """The exact storage/transfer Pareto front over all partitions.

    Equivalent to Pareto-filtering
    :func:`repro.core.partition.enumerate_partitions` but polynomial in
    practice: the O(l^2) group analyses of one
    :class:`~repro.core.partition.GroupTable` (the sweep's own scores)
    plus front extensions, with the per-prefix fronts pruned to
    non-dominated points.
    """
    n = len(units)
    if n == 0:
        return []
    table = GroupTable(units, tip_h=tip_h, tip_w=tip_w)
    # fronts[i]: Pareto-optimal partials covering units[:i].
    fronts: List[List[FrontierPoint]] = [[] for _ in range(n + 1)]
    fronts[0] = [FrontierPoint(sizes=(), storage_bytes=0, transfer_bytes=0)]
    for i in range(n):
        for j in range(i + 1, n + 1):
            group = table[(i, j - i)]
            storage = group.extra_storage_bytes
            transfer = group.transfer.feature_map_bytes
            extended = [
                FrontierPoint(
                    sizes=partial.sizes + (j - i,),
                    storage_bytes=partial.storage_bytes + storage,
                    transfer_bytes=partial.transfer_bytes + transfer,
                )
                for partial in fronts[i]
            ]
            fronts[j] = _prune(fronts[j] + extended)
    return fronts[n]
