"""The fused-layer accelerator model (Section IV-B).

One compute module per fused layer, pipelined across pyramids (Figure 6).
Each conv module ``i`` has its own unroll factors ``(Tm_i, Tn_i)``; the
design-space exploration picks them to balance the pipeline — "We select
the option that has the minimal cycle count difference across all
layers" — under the DSP constraint::

    sum_i Tm_i * Tn_i * (DSPadd + DSPmul) <= available DSPs

Per-pyramid stage latency uses the paper's cycle formula applied to the
steady-state fresh tile each pyramid contributes at that layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import List, Optional, Sequence, Tuple

from ..core.costs import reuse_buffer_plans
from ..errors import ConfigError
from ..core.pyramid import PyramidGeometry, build_pyramid
from ..nn.shapes import BYTES_PER_WORD
from ..nn.stages import Level
from .device import DSP_PER_MAC, VIRTEX7_690T, FpgaDevice
from .pipeline import StageTiming, analytic_makespan, simulate_pipeline
from .resources import ResourceEstimate

#: Words the DRAM interface delivers per cycle for the load stage model.
WORDS_PER_CYCLE = 16


@dataclass(frozen=True)
class ModuleConfig:
    """Unroll factors and per-pyramid latency of one conv module."""

    level: Level
    tm: int
    tn: int
    fresh_h: int  # steady-state fresh output tile per pyramid
    fresh_w: int
    cycles: int   # per-pyramid latency of this module

    @property
    def dsp(self) -> int:
        return self.tm * self.tn * DSP_PER_MAC


def module_cycles(level: Level, tm: int, tn: int, fresh_h: int, fresh_w: int) -> int:
    """Section IV-B: Cycles = ceil(M/Tm) * ceil(N/Tn) * outW * outH * K^2.

    Grouped convolutions run once per group over M/g x N/g channels.
    """
    g = level.groups
    return (g * ceil(level.out_channels // g / tm) * ceil(level.in_channels // g / tn)
            * fresh_h * fresh_w * level.kernel * level.kernel)


def _fresh_tiles(levels: Sequence[Level], geometry: PyramidGeometry) -> List[Tuple[int, int]]:
    """Steady-state fresh output tile (h, w) per level: the stride product
    of everything above it times the tip."""
    tiles = []
    for i, level in enumerate(levels):
        tile = geometry.tiles[i]
        tiles.append((tile.step_h // level.stride, tile.step_w // level.stride))
    return tiles


@dataclass(frozen=True)
class FusedDesign:
    """A complete fused accelerator for one group of levels."""

    levels: Tuple[Level, ...]
    modules: Tuple[ModuleConfig, ...]  # conv modules only, in order
    tip_h: int
    tip_w: int
    device: FpgaDevice

    def __post_init__(self) -> None:
        if not self.modules:
            raise ConfigError("a fused design needs at least one conv module")

    @property
    def geometry(self) -> PyramidGeometry:
        return build_pyramid(self.levels, self.tip_h, self.tip_w)

    @property
    def num_pyramids(self) -> int:
        rows, cols = self.geometry.num_positions
        return rows * cols

    @property
    def dsp(self) -> int:
        return sum(module.dsp for module in self.modules) + self._control_dsp()

    def _control_dsp(self) -> int:
        # calcparams / address-generation arithmetic: a small per-stage tax
        # (the paper notes "a minor increase in DSP slices (due to the
        # additional control logic)").
        return 16 * len(self.stage_timings())

    def stage_timings(self) -> List[StageTiming]:
        """Per-pyramid pipeline stages: load, conv modules, pool stages,
        store. Load and store carry the words they move, so the same
        stages also run against a shared DRAM channel."""
        geometry = self.geometry
        fresh = _fresh_tiles(self.levels, geometry)
        stages: List[StageTiming] = []
        base = geometry.tiles[0]
        load_words = base.new_in_h * base.new_in_w * self.levels[0].in_channels
        stages.append(StageTiming("load", ceil(load_words / WORDS_PER_CYCLE),
                                  words=load_words))
        conv_iter = iter(self.modules)
        for i, level in enumerate(self.levels):
            if level.is_conv:
                module = next(conv_iter)
                stages.append(StageTiming(level.name, module.cycles))
            else:
                h, w = fresh[i]
                pool_cycles = h * w * level.out_channels * level.kernel * level.kernel
                stages.append(StageTiming(level.name, ceil(pool_cycles / WORDS_PER_CYCLE)))
        out = self.levels[-1].out_shape
        store_words = self.tip_h * self.tip_w * out.channels
        stages.append(StageTiming("store", ceil(store_words / WORDS_PER_CYCLE),
                                  words=store_words))
        return stages

    @property
    def total_cycles(self) -> int:
        """Makespan of pipelining every pyramid through the stages."""
        return analytic_makespan(self.stage_timings(), self.num_pyramids)

    def simulate_cycles(self) -> int:
        """Event-driven cross-check of :attr:`total_cycles`."""
        return simulate_pipeline(self.stage_timings(), self.num_pyramids).makespan

    def cycles_for_images(self, num_images: int) -> int:
        """Makespan for a stream of images processed back to back.

        Consecutive images' pyramids flow through the same pipeline, so
        the fill cost is paid once and amortized across the batch.
        """
        if num_images < 0:
            raise ConfigError("num_images must be non-negative")
        return analytic_makespan(self.stage_timings(),
                                 self.num_pyramids * num_images)

    def images_per_second(self, frequency_hz: float) -> float:
        """Steady-state throughput at a clock frequency."""
        stages = self.stage_timings()
        interval = max(stage.cycles for stage in stages) * self.num_pyramids
        return frequency_hz / interval

    @property
    def cycle_imbalance(self) -> int:
        """Max - min conv-module latency (the balance objective)."""
        cycles = [module.cycles for module in self.modules]
        return max(cycles) - min(cycles)

    @property
    def transfer_bytes(self) -> int:
        """Input read once, final output written once, weights once."""
        first, last = self.levels[0], self.levels[-1]
        weights = sum(level.weight_count for level in self.levels)
        return (first.in_shape.elements + last.out_shape.elements + weights) * BYTES_PER_WORD

    @property
    def feature_transfer_bytes(self) -> int:
        first, last = self.levels[0], self.levels[-1]
        return (first.in_shape.elements + last.out_shape.elements) * BYTES_PER_WORD

    def resources(self) -> ResourceEstimate:
        """BRAM/LUT/FF estimate: per-module window and output tiles
        (ping-pong between pipeline stages), BL/BT reuse buffers, and all
        weights resident on chip."""
        est = ResourceEstimate(
            mac_lanes=sum(m.tm * m.tn for m in self.modules),
            extra_dsp=self._control_dsp(),
            control_complexity=len(self.stage_timings()),
        )
        geometry = self.geometry
        conv_iter = iter(self.modules)
        for i, level in enumerate(self.levels):
            tile = geometry.tiles[i]
            window_words = tile.in_h * tile.in_w * level.in_channels
            if level.is_conv:
                module = next(conv_iter)
                est.add_buffer(f"in[{level.name}]", window_words,
                               banks=module.tn, double_buffered=True)
                est.add_buffer(f"weights[{level.name}]", level.weight_count,
                               banks=module.tm)
            else:
                est.add_buffer(f"in[{level.name}]", window_words, double_buffered=True)
        for plan in reuse_buffer_plans(self.levels, self.tip_h, self.tip_w,
                                       include_input_level=True):
            est.add_buffer(f"BL[{plan.consumer_name}]", plan.bl_elements)
            est.add_buffer(f"BT[{plan.consumer_name}]", plan.bt_elements)
        out = self.levels[-1].out_shape
        est.add_buffer("store", self.tip_h * self.tip_w * out.channels,
                       double_buffered=True)
        return est


def optimize_fused(levels: Sequence[Level], dsp_budget: int,
                   device: FpgaDevice = VIRTEX7_690T,
                   tip_h: int = 1, tip_w: int = 1,
                   check_fits: bool = False) -> FusedDesign:
    """Pick per-module (Tm, Tn) to balance the pipeline under the budget.

    For every candidate steady-state latency T (drawn from each module's
    achievable latencies), each conv module takes its cheapest-DSP config
    with latency <= T; the feasible T minimizing (T, imbalance, DSP) wins.
    All ties break deterministically: per module toward the
    lexicographically smallest (Tm, Tn) among equal-DSP configs, and
    across targets toward the design with the lexicographically smallest
    per-module (Tm, Tn) sequence — so equal-cycle allocations never
    depend on enumeration order.

    With ``check_fits=True`` the winning design is also validated against
    the device's BRAM/LUT/FF capacity (weights must stay resident for the
    whole group — the constraint that limits fusion depth); an oversize
    design raises ``ValueError`` naming the exhausted resource.
    """
    levels = tuple(levels)
    geometry = build_pyramid(levels, tip_h, tip_w)
    fresh = _fresh_tiles(levels, geometry)
    conv_indices = [i for i, level in enumerate(levels) if level.is_conv]
    if not conv_indices:
        raise ConfigError("fused group has no convolutional levels")

    control_tax = 16 * (len(levels) + 2)
    lane_budget = (dsp_budget - control_tax) // DSP_PER_MAC
    if lane_budget < len(conv_indices):
        raise ConfigError(f"DSP budget {dsp_budget} too small for {len(conv_indices)} modules",
                          dsp_budget=dsp_budget, modules=len(conv_indices))

    candidates: List[List[ModuleConfig]] = []
    for i in conv_indices:
        level = levels[i]
        h, w = fresh[i]
        options: List[ModuleConfig] = []
        for tm in _divisor_like(level.out_channels // level.groups, lane_budget):
            for tn in _divisor_like(level.in_channels // level.groups,
                                    lane_budget // max(tm, 1)):
                cycles = module_cycles(level, tm, tn, h, w)
                options.append(ModuleConfig(level=level, tm=tm, tn=tn,
                                            fresh_h=h, fresh_w=w, cycles=cycles))
        # Pareto-prune: keep only configs where fewer lanes never means
        # fewer cycles. The (tm, tn) tail makes the order — and hence
        # the surviving config for each (cycles, dsp) — deterministic.
        options.sort(key=lambda m: (m.cycles, m.dsp, m.tm, m.tn))
        pruned: List[ModuleConfig] = []
        best_dsp = None
        for option in options:
            if best_dsp is None or option.dsp < best_dsp:
                pruned.append(option)
                best_dsp = option.dsp
        candidates.append(pruned)

    targets = sorted({option.cycles for options in candidates for option in options})
    best: Optional[Tuple[tuple, List[ModuleConfig]]] = None
    for target in targets:
        picks: List[ModuleConfig] = []
        feasible = True
        for options in candidates:
            usable = [o for o in options if o.cycles <= target]
            if not usable:
                feasible = False
                break
            # Equal-DSP ties break lexicographically on (tm, tn), so the
            # chosen shape never depends on candidate enumeration order.
            picks.append(min(usable, key=lambda m: (m.dsp, m.tm, m.tn)))
        if not feasible:
            continue
        lanes = sum(p.tm * p.tn for p in picks)
        if lanes > lane_budget:
            continue
        slowest = max(p.cycles for p in picks)
        imbalance = slowest - min(p.cycles for p in picks)
        key = (slowest, imbalance, lanes,
               tuple((p.tm, p.tn) for p in picks))
        if best is None or key < best[0]:
            best = (key, picks)
    if best is None:
        raise ConfigError(f"no feasible fused design within {dsp_budget} DSPs",
                         dsp_budget=dsp_budget)
    design = FusedDesign(levels=levels, modules=tuple(best[1]),
                         tip_h=tip_h, tip_w=tip_w, device=device)
    if check_fits:
        resources = design.resources()
        for label, used, avail in (
            ("BRAM18", resources.bram18, device.bram18),
            ("LUTs", resources.luts, device.luts),
            ("FFs", resources.ffs, device.ffs),
        ):
            if used > avail:
                raise ConfigError(
                    f"fused design needs {used} {label} but {device.name} has "
                    f"{avail}; fuse fewer layers (weights and windows must "
                    f"stay resident for the whole group)"
                )
    return design


def _divisor_like(n: int, cap: int) -> List[int]:
    """Candidate unroll factors for a loop of trip count ``n``: divisors
    and near-divisors up to ``cap`` (HLS designs favor factors that avoid
    ragged final iterations)."""
    if cap < 1:
        return []
    values = {v for v in range(1, min(n, cap) + 1) if n % v == 0}
    for v in (2, 3, 4, 6, 7, 8, 12, 14, 16, 24, 28, 32, 48, 64, 96, 128):
        if v <= min(n, cap):
            values.add(v)
    return sorted(values)
