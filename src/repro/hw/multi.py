"""Multi-pyramid accelerators: hardware for an arbitrary fusion partition.

Figure 4 contrasts fusing all layers into a single pyramid against
decomposing them into several pyramids with a DRAM round-trip between
them. This module builds the hardware view of any partition the
exploration tool scores: one fused engine per group, the DSP budget
split across groups in proportion to their arithmetic, with the
boundary feature maps staged through DRAM.

Per-image latency sums the groups (group i+1 needs group i's full
output); streaming throughput pipelines groups across consecutive
images, so the slowest group sets the interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import List, Optional, Sequence, Tuple, Union

from ..core.partition import group_tip, split_groups
from ..errors import ConfigError
from ..nn.stages import Level
from .device import VIRTEX7_690T, FpgaDevice
from .fused_accel import FusedDesign, optimize_fused
from .resources import ResourceEstimate

#: Pool-engine throughput for pool-only groups (window values per cycle).
_POOL_WORDS_PER_CYCLE = 16


@dataclass(frozen=True)
class PoolEngine:
    """A stand-alone engine for a group containing no convolutions."""

    levels: Tuple[Level, ...]

    @property
    def total_cycles(self) -> int:
        ops = sum(
            level.out_shape.elements * level.kernel * level.kernel
            for level in self.levels
        )
        return ceil(ops / _POOL_WORDS_PER_CYCLE)

    @property
    def dsp(self) -> int:
        return 0

    def resources(self) -> ResourceEstimate:
        est = ResourceEstimate(control_complexity=len(self.levels))
        for level in self.levels:
            est.add_buffer(f"line[{level.name}]",
                           level.kernel * level.in_shape.width * level.in_channels)
        return est


GroupEngine = Union[FusedDesign, PoolEngine]


@dataclass(frozen=True)
class PartitionDesign:
    """Hardware realization of one fusion partition."""

    engines: Tuple[GroupEngine, ...]
    sizes: Tuple[int, ...]
    device: FpgaDevice

    @property
    def latency_cycles(self) -> int:
        """Per-image latency: groups run back to back."""
        return sum(engine.total_cycles for engine in self.engines)

    @property
    def throughput_interval(self) -> int:
        """Streaming interval: groups pipelined across images."""
        return max(engine.total_cycles for engine in self.engines)

    @property
    def dsp(self) -> int:
        return sum(engine.dsp for engine in self.engines)

    @property
    def feature_transfer_bytes(self) -> int:
        """Network input + output, plus each boundary map twice."""
        levels = [level for engine in self.engines for level in engine.levels]
        total = levels[0].in_shape.bytes + levels[-1].out_shape.bytes
        offset = 0
        for engine in self.engines[:-1]:
            offset += len(engine.levels)
            total += 2 * levels[offset - 1].out_shape.bytes
        return total

    def resources(self) -> ResourceEstimate:
        merged = ResourceEstimate()
        for engine in self.engines:
            est = engine.resources()
            merged.buffers.extend(est.buffers)
            merged.mac_lanes += est.mac_lanes
            merged.extra_dsp += est.extra_dsp
            merged.control_complexity += est.control_complexity
        return merged


def design_partition(levels: Sequence[Level], sizes: Sequence[int],
                     dsp_budget: int, device: FpgaDevice = VIRTEX7_690T,
                     tip_h: int = 1, tip_w: int = 1) -> PartitionDesign:
    """Build one engine per group, splitting the DSP budget by work.

    Groups without convolutions become :class:`PoolEngine`; conv groups
    get a fused engine sized to a share of the budget proportional to
    their arithmetic (with a floor large enough to be feasible).
    """
    groups = split_groups(levels, sizes)

    work = [sum(level.total_ops for level in group if level.is_conv)
            for group in groups]
    total_work = sum(work) or 1
    # Split the budget: every conv group gets a floor big enough to
    # instantiate its modules; the remainder is distributed by work so
    # the engine shares sum to at most the budget.
    floors = [400 * sum(1 for level in group if level.is_conv)
              for group in groups]
    floor_total = sum(floors)
    if floor_total > dsp_budget:
        raise ConfigError(
            f"DSP budget {dsp_budget} cannot host {len(groups)} engines "
            f"(needs at least {floor_total})"
        )
    spare = dsp_budget - floor_total
    shares = [floor + int(spare * group_work / total_work)
              for floor, group_work in zip(floors, work)]

    engines: List[GroupEngine] = []
    for group, share in zip(groups, shares):
        if not any(level.is_conv for level in group):
            engines.append(PoolEngine(levels=tuple(group)))
            continue
        clipped_h, clipped_w = group_tip(group, tip_h, tip_w)
        engines.append(
            optimize_fused(group, dsp_budget=share, device=device,
                           tip_h=clipped_h, tip_w=clipped_w)
        )
    return PartitionDesign(engines=tuple(engines), sizes=tuple(sizes), device=device)
