"""DRAM bandwidth modeling: when does memory become the bottleneck?

The paper motivates fusion by bandwidth: "Data transfer values can be
converted to bandwidth by multiplying by the target throughput. For
example, if an accelerator targets 50 images/second, and the graph shows
an off-chip transfer of 100MB, this would require 5 GB/sec. bandwidth"
(footnote 4). This module provides that conversion plus a roofline-style
performance model: with double buffering, compute and transfer overlap,
so effective time per image is ``max(compute_cycles, transfer_cycles)``.
Sweeping available bandwidth locates the crossover where the baseline
design becomes memory-bound while the fused design keeps streaming.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import List, Sequence

from ..errors import ConfigError


def required_bandwidth_bytes_per_sec(transfer_bytes_per_image: int,
                                     images_per_second: float) -> float:
    """Footnote 4: sustained DRAM bandwidth for a target frame rate."""
    if images_per_second < 0:
        raise ConfigError("images_per_second must be non-negative",
                          images_per_second=images_per_second)
    return transfer_bytes_per_image * images_per_second


@dataclass(frozen=True)
class EffectivePerformance:
    """A design's throughput under a finite memory system."""

    compute_cycles: int
    transfer_cycles: int
    bytes_per_cycle: float

    @property
    def effective_cycles(self) -> int:
        """Per-image latency with transfer fully overlapped (double
        buffering): whichever of compute or transfer dominates."""
        return max(self.compute_cycles, self.transfer_cycles)

    @property
    def bound(self) -> str:
        return "memory" if self.transfer_cycles > self.compute_cycles else "compute"

    @property
    def compute_utilization(self) -> float:
        """Fraction of time the arithmetic units stay busy."""
        if self.effective_cycles == 0:
            return 1.0
        return self.compute_cycles / self.effective_cycles

    def images_per_second(self, frequency_hz: float) -> float:
        if self.effective_cycles == 0:
            return float("inf")
        return frequency_hz / self.effective_cycles


def performance_under_bandwidth(compute_cycles: int, transfer_bytes: int,
                                bytes_per_cycle: float) -> EffectivePerformance:
    """Roofline point for one design at one memory bandwidth.

    ``bytes_per_cycle`` is the DRAM interface width at the accelerator
    clock (e.g. a 100 MHz design on a 12.8 GB/s DDR3 channel sees 128
    bytes/cycle).
    """
    if bytes_per_cycle <= 0:
        raise ConfigError("bytes_per_cycle must be positive",
                          bytes_per_cycle=bytes_per_cycle)
    return EffectivePerformance(
        compute_cycles=compute_cycles,
        transfer_cycles=ceil(transfer_bytes / bytes_per_cycle),
        bytes_per_cycle=bytes_per_cycle,
    )


@dataclass(frozen=True)
class SweepPoint:
    """Fused and baseline effective cycles at one memory bandwidth."""

    bytes_per_cycle: float
    fused_cycles: int
    baseline_cycles: int

    @property
    def speedup(self) -> float:
        """Fused over baseline (>1 means fused is faster)."""
        return self.baseline_cycles / self.fused_cycles


def bandwidth_sweep(fused_compute: int, fused_bytes: int,
                    baseline_compute: int, baseline_bytes: int,
                    bandwidths: Sequence[float]) -> List[SweepPoint]:
    """Effective per-image cycles of both designs across bandwidths."""
    points = []
    for bw in bandwidths:
        fused = performance_under_bandwidth(fused_compute, fused_bytes, bw)
        base = performance_under_bandwidth(baseline_compute, baseline_bytes, bw)
        points.append(SweepPoint(bytes_per_cycle=bw,
                                 fused_cycles=fused.effective_cycles,
                                 baseline_cycles=base.effective_cycles))
    return points


def memory_bound_threshold(compute_cycles: int, transfer_bytes: int) -> float:
    """Bandwidth (bytes/cycle) below which a design is memory-bound."""
    if compute_cycles <= 0:
        raise ConfigError("compute_cycles must be positive",
                          compute_cycles=compute_cycles)
    return transfer_bytes / compute_cycles
