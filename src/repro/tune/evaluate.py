"""Candidate evaluation: joint-space points priced by the real simulators.

Where the explorer scores partitions with closed-form byte models, the
tuner prices every :class:`~repro.tune.space.Candidate` with the
hardware layer itself:

* the partition's engines are built exactly as :func:`repro.hw.multi
  .design_partition` would — except that groups carrying an explicit
  ``(Tm, Tn)`` tile get those unroll factors directly (clipped to the
  module's channel counts), and only the remaining ``auto`` groups
  share the leftover DSP budget through ``optimize_fused``;
* under the ``recompute`` strategy each conv module's per-pyramid
  latency covers its *full* tile footprint (every pyramid recomputes
  shared values) instead of the steady-state fresh tile, and the BL/BT
  reuse buffers drop out of the BRAM bill — the Section III-C trade
  priced in cycles and block RAMs;
* validity is checked against the space's DSP and BRAM18 budgets via
  :mod:`repro.hw.resources`.

Evaluation is deterministic and side-effect free, so results memoize on
:meth:`Candidate.key` and can fan out across processes
(:func:`evaluate_batch`). :func:`lower_bounds` gives the cheap analytical
floor per metric that bound-based pruning compares against the
incumbent before paying for a full build.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.costs import group_transfer
from ..core.fusion import GroupAnalysis, Strategy, analyze_group
from ..core.partition import group_tip, split_groups
from ..core.pyramid import build_pyramid
from ..errors import ConfigError, ReproError
from ..hw.device import (
    DEFAULT_DEVICE,
    DSP_PER_MAC,
    VIRTEX7_690T,
    DeviceSpec,
    FpgaDevice,
    split_device,
)
from ..dist.plan import DEFAULT_WEIGHT_ITEMS
from ..dist.stage import balance_stages, level_atoms
from ..hw.link import DEFAULT_LINK, LinkSpec
from ..hw.energy import estimate_energy
from ..hw.fused_accel import (
    WORDS_PER_CYCLE,
    FusedDesign,
    ModuleConfig,
    _fresh_tiles,
    module_cycles,
    optimize_fused,
)
from ..hw.multi import GroupEngine, PartitionDesign, PoolEngine
from ..hw.resources import ResourceEstimate
from ..nn.stages import Level
from .space import Candidate, SearchSpace


@dataclass(frozen=True)
class EvalContext:
    """Everything a worker process needs to price one candidate.

    ``pipe_device``/``link``/``weight_items`` parameterize the
    :mod:`repro.dist` stage/link model that prices the ``devices`` axis:
    a ``K``-device candidate runs on ``split_device(pipe_device, K)`` —
    the resource-neutral fleet, so ``interval_dsp`` comparisons across
    device counts are apples to apples.
    """

    levels: Tuple[Level, ...]
    device: FpgaDevice = VIRTEX7_690T
    dsp_budget: int = VIRTEX7_690T.dsp_slices
    bram_budget: int = VIRTEX7_690T.bram18
    pipe_device: DeviceSpec = DEFAULT_DEVICE
    link: LinkSpec = DEFAULT_LINK
    weight_items: int = DEFAULT_WEIGHT_ITEMS

    @classmethod
    def from_space(cls, space: SearchSpace) -> "EvalContext":
        return cls(levels=space.levels, device=space.device,
                   dsp_budget=space.dsp_budget,
                   bram_budget=space.bram18_budget)


@dataclass(frozen=True)
class EvalResult:
    """The priced candidate: metrics when valid, a reason when not."""

    candidate: Candidate
    valid: bool
    metrics: Dict[str, float] = field(default_factory=dict)
    reason: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {"candidate": self.candidate.to_dict(), "valid": self.valid,
                "metrics": dict(self.metrics), "reason": self.reason}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "EvalResult":
        return cls(candidate=Candidate.from_dict(data["candidate"]),
                   valid=bool(data["valid"]),
                   metrics={k: float(v) for k, v in data["metrics"].items()},
                   reason=data.get("reason", ""))


def _explicit_engine(group: Sequence[Level], tile: Tuple[int, int],
                     tip: int, strategy: Strategy,
                     device: FpgaDevice) -> FusedDesign:
    """A fused engine with every conv module capped at (Tm, Tn)."""
    levels = tuple(group)
    tip_h, tip_w = group_tip(levels, tip)
    geometry = build_pyramid(levels, tip_h, tip_w)
    fresh = _fresh_tiles(levels, geometry)
    tm_cap, tn_cap = tile
    modules: List[ModuleConfig] = []
    for i, level in enumerate(levels):
        if not level.is_conv:
            continue
        g = level.groups
        tm = max(1, min(tm_cap, level.out_channels // g))
        tn = max(1, min(tn_cap, level.in_channels // g))
        if strategy is Strategy.RECOMPUTE:
            fh, fw = geometry.tiles[i].out_h, geometry.tiles[i].out_w
        else:
            fh, fw = fresh[i]
        modules.append(ModuleConfig(level=level, tm=tm, tn=tn,
                                    fresh_h=fh, fresh_w=fw,
                                    cycles=module_cycles(level, tm, tn, fh, fw)))
    return FusedDesign(levels=levels, modules=tuple(modules),
                       tip_h=tip_h, tip_w=tip_w, device=device)


def _recompute_variant(design: FusedDesign) -> FusedDesign:
    """Reprice a reuse-tiled design under the recompute strategy: every
    conv module covers its full tile footprint per pyramid."""
    geometry = design.geometry
    conv_iter = iter(design.modules)
    modules: List[ModuleConfig] = []
    for i, level in enumerate(design.levels):
        if not level.is_conv:
            continue
        m = next(conv_iter)
        fh, fw = geometry.tiles[i].out_h, geometry.tiles[i].out_w
        modules.append(ModuleConfig(level=level, tm=m.tm, tn=m.tn,
                                    fresh_h=fh, fresh_w=fw,
                                    cycles=module_cycles(level, m.tm, m.tn,
                                                         fh, fw)))
    return FusedDesign(levels=design.levels, modules=tuple(modules),
                       tip_h=design.tip_h, tip_w=design.tip_w,
                       device=design.device)


def candidate_design(levels: Sequence[Level], candidate: Candidate,
                     device: FpgaDevice = VIRTEX7_690T,
                     dsp_budget: int = VIRTEX7_690T.dsp_slices) -> PartitionDesign:
    """Build the multi-pyramid hardware for one candidate.

    Explicit-tile groups are instantiated first at face value; the
    remaining conv groups split the leftover DSP budget in proportion to
    their arithmetic, exactly like
    :func:`~repro.hw.multi.design_partition`. Raises
    :class:`~repro.errors.ConfigError` when no feasible design exists
    (the caller records the candidate as invalid).
    """
    strategy = Strategy.RECOMPUTE if candidate.strategy == "recompute" else Strategy.REUSE
    groups = split_groups(levels, candidate.sizes)
    engines: List[Optional[GroupEngine]] = [None] * len(groups)
    auto_indices: List[int] = []
    explicit_dsp = 0
    for gi, (group, tile) in enumerate(zip(groups, candidate.tiles)):
        if not any(level.is_conv for level in group):
            engines[gi] = PoolEngine(levels=tuple(group))
            continue
        if tile is None:
            auto_indices.append(gi)
            continue
        engine = _explicit_engine(group, tile, candidate.tip, strategy, device)
        engines[gi] = engine
        explicit_dsp += engine.dsp

    if auto_indices:
        remaining = dsp_budget - explicit_dsp
        work = [sum(level.total_ops for level in groups[gi]
                    if level.is_conv) for gi in auto_indices]
        total_work = sum(work) or 1
        floors = [400 * sum(1 for level in groups[gi] if level.is_conv)
                  for gi in auto_indices]
        if sum(floors) > remaining:
            raise ConfigError(
                f"DSP budget {dsp_budget} cannot host {len(auto_indices)} "
                f"auto-tiled engines after {explicit_dsp} explicit DSPs",
                dsp_budget=dsp_budget, explicit_dsp=explicit_dsp)
        spare = remaining - sum(floors)
        for gi, floor, group_work in zip(auto_indices, floors, work):
            share = floor + int(spare * group_work / total_work)
            group = groups[gi]
            tip_h, tip_w = group_tip(group, candidate.tip)
            design = optimize_fused(group, dsp_budget=share, device=device,
                                    tip_h=tip_h, tip_w=tip_w)
            if strategy is Strategy.RECOMPUTE:
                design = _recompute_variant(design)
            engines[gi] = design
    return PartitionDesign(engines=tuple(e for e in engines if e is not None),
                           sizes=candidate.sizes, device=device)


def candidate_resources(design: PartitionDesign,
                        strategy: str) -> ResourceEstimate:
    """The design's BRAM/LUT/FF bill under the candidate's strategy:
    recompute drops the BL/BT reuse buffers (nothing is cached)."""
    est = design.resources()
    if strategy != "recompute":
        return est
    kept = [b for b in est.buffers
            if not b.name.startswith(("BL[", "BT["))]
    return ResourceEstimate(buffers=kept, mac_lanes=est.mac_lanes,
                            extra_dsp=est.extra_dsp,
                            control_complexity=est.control_complexity)


def analyze_candidate(levels: Sequence[Level],
                      candidate: Candidate) -> List[GroupAnalysis]:
    """Closed-form Section III costs per group (tip clipped per group)."""
    strategy = Strategy.RECOMPUTE if candidate.strategy == "recompute" else Strategy.REUSE
    analyses: List[GroupAnalysis] = []
    for group in split_groups(levels, candidate.sizes):
        tip_h, tip_w = group_tip(group, candidate.tip)
        analyses.append(analyze_group(tuple(group), strategy=strategy,
                                      tip_h=tip_h, tip_w=tip_w))
    return analyses


def _pipeline_metrics(ctx: EvalContext,
                      candidate: Candidate) -> Dict[str, float]:
    """Price the candidate's partition on its device fleet with the
    :mod:`repro.dist` stage/link model.

    Raises :class:`~repro.errors.ConfigError` when the fleet is
    infeasible (fewer groups than devices, or a stage's DSP floor over
    its shard) — the caller decides whether that invalidates the
    candidate (``devices > 1``) or is merely uninformative
    (``devices == 1``, where the classic metrics already apply).
    """
    atoms = level_atoms(split_groups(ctx.levels, candidate.sizes),
                        ctx.levels[0].in_shape.bytes)
    fleet = split_device(ctx.pipe_device, candidate.devices)
    estimate = balance_stages(atoms, fleet, ctx.link,
                              weight_items=ctx.weight_items)
    interval = estimate.interval_cycles
    utilization = estimate.stage_utilization
    # fill/drain over a standard micro-batch probe (one amortization run)
    run = estimate.simulate(max(ctx.weight_items, 2))
    return {
        "pipe_interval": float(interval),
        "interval_dsp": float(interval) * estimate.total_dsp,
        "link_bytes": float(estimate.link_bytes),
        "pipe_latency": float(estimate.latency_cycles),
        "fill_drain_cycles": float(run.fill_drain_cycles),
        "stage_utilization": float(min(utilization)),
        "throughput_per_dsp": estimate.throughput_per_dsp,
    }


def evaluate_candidate(ctx: EvalContext, candidate: Candidate) -> EvalResult:
    """Price one candidate: analytical costs + simulated hardware cycles.

    Infeasible candidates (no design fits, or the built design exceeds
    the DSP/BRAM budgets) come back ``valid=False`` with the metrics
    that could still be computed — the search treats them as infinitely
    bad but the :class:`TuningDB` remembers them, so a resumed run never
    pays for the same dead end twice.
    """
    analyses = analyze_candidate(ctx.levels, candidate)
    feature_bytes = sum(a.transfer.feature_map_bytes for a in analyses)
    weight_bytes = sum(a.transfer.weight_bytes for a in analyses)
    total_ops = sum(a.baseline_ops + a.extra_ops for a in analyses)
    metrics: Dict[str, float] = {
        "bytes": float(feature_bytes),
        "transfer_total": float(feature_bytes + weight_bytes),
        "extra_storage_bytes": float(sum(a.extra_storage_bytes
                                         for a in analyses)),
        "extra_ops": float(sum(a.extra_ops for a in analyses)),
        "energy": estimate_energy(candidate.key(),
                                  feature_bytes + weight_bytes,
                                  total_ops).total_j,
    }
    try:
        metrics.update(_pipeline_metrics(ctx, candidate))
    except ConfigError as err:
        if candidate.devices > 1:
            # A multi-device candidate that cannot shard is a dead end;
            # single-device candidates fall back to the classic metrics.
            return EvalResult(candidate=candidate, valid=False,
                              metrics=metrics, reason=str(err))
    try:
        design = candidate_design(ctx.levels, candidate,
                                  device=ctx.device,
                                  dsp_budget=ctx.dsp_budget)
    except ReproError as err:
        return EvalResult(candidate=candidate, valid=False,
                          metrics=metrics, reason=str(err))
    resources = candidate_resources(design, candidate.strategy)
    metrics.update({
        "cycles": float(design.latency_cycles),
        "interval": float(design.throughput_interval),
        "dsp": float(design.dsp),
        "bram18": float(resources.bram18),
    })
    if design.dsp > ctx.dsp_budget:
        return EvalResult(candidate=candidate, valid=False, metrics=metrics,
                          reason=f"needs {design.dsp} DSPs, budget "
                                 f"{ctx.dsp_budget}")
    if resources.bram18 > ctx.bram_budget:
        return EvalResult(candidate=candidate, valid=False, metrics=metrics,
                          reason=f"needs {resources.bram18} BRAM18, budget "
                                 f"{ctx.bram_budget}")
    return EvalResult(candidate=candidate, valid=True, metrics=metrics)


def lower_bounds(ctx: EvalContext, candidate: Candidate) -> Dict[str, float]:
    """Cheap analytical floors per metric — no pyramid or design build.

    Valid for every tiling/strategy the candidate could resolve to:
    cycles are bounded below by DRAM streaming (every input read and
    output written at least once at ``WORDS_PER_CYCLE``) and by compute
    (total MACs over the budget's maximum lane count); energy by the
    one-pass arithmetic plus the partition's unavoidable transfer;
    ``bytes`` is exact (the analytical model *is* the metric).
    """
    groups = split_groups(ctx.levels, candidate.sizes)
    max_lanes = max(1, ctx.dsp_budget // DSP_PER_MAC)
    cycles_lb = 0
    interval_lb = 0
    feature_bytes = 0
    weight_bytes = 0
    one_pass = 0
    for group in groups:
        transfer = group_transfer(group)
        feature_bytes += transfer.feature_map_bytes
        weight_bytes += transfer.weight_bytes
        macs = sum(level.total_ops for level in group if level.is_conv) // 2
        group_lb = max(
            ceil(group[0].in_shape.elements / WORDS_PER_CYCLE),
            ceil(group[-1].out_shape.elements / WORDS_PER_CYCLE),
            ceil(macs / max_lanes),
        )
        cycles_lb += group_lb
        interval_lb = max(interval_lb, group_lb)
        one_pass += sum(level.total_ops for level in group)
    energy_lb = estimate_energy("lower-bound",
                                feature_bytes + weight_bytes,
                                one_pass).total_j
    # Pipeline floors: the slowest stage carries at least 1/K of the
    # total arithmetic through a 1/K shard of the pipe device's lanes.
    k = max(1, candidate.devices)
    shard_dsp = ctx.pipe_device.dsp // k
    shard_rate = max(1, 2 * (shard_dsp // DSP_PER_MAC))
    pipe_interval_lb = ceil(one_pass / (k * shard_rate))
    return {"cycles": float(cycles_lb), "interval": float(interval_lb),
            "bytes": float(feature_bytes), "energy": energy_lb,
            "pipe_interval": float(pipe_interval_lb),
            "interval_dsp": float(pipe_interval_lb * k * shard_dsp)}


def _eval_job(args: Tuple[EvalContext, Candidate]) -> EvalResult:
    """Pool target (module-level for picklability)."""
    ctx, candidate = args
    return evaluate_candidate(ctx, candidate)


def evaluate_batch(ctx: EvalContext, candidates: Sequence[Candidate],
                   jobs: int = 1) -> List[EvalResult]:
    """Price a generation, optionally fanned across worker processes.

    Results come back in candidate order regardless of ``jobs``, so a
    parallel tuning run is bit-identical to a serial one.
    """
    if jobs < 1:
        raise ConfigError("jobs must be >= 1", jobs=jobs)
    if jobs == 1 or len(candidates) <= 1:
        return [evaluate_candidate(ctx, c) for c in candidates]
    import concurrent.futures

    work = [(ctx, c) for c in candidates]
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_eval_job, work))
